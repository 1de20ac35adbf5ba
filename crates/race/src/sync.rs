//! The shim sync layer.
//!
//! Normal builds: zero-cost re-exports of `std::sync` — the *same types*, no
//! wrapper, no branch. Model builds (`--cfg paradigm_race`): API-compatible
//! replacements that route every operation through the cooperative scheduler
//! as a scheduling point. Poisoning semantics are preserved (a guard dropped
//! during a real panic poisons the lock; teardown unwinds do not).
//!
//! Atomics are modeled as sequentially consistent: each operation is one
//! indivisible scheduling point. The `Ordering` argument is accepted and
//! recorded in traces (`SeqCst`/`AcqRel`/`Acquire`/`Release`/`Relaxed`) but
//! weak-memory reordering is *not* simulated — see DESIGN.md §12.

#[cfg(not(paradigm_race))]
pub use std::sync::{
    Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard, WaitTimeoutResult,
};

#[cfg(not(paradigm_race))]
pub mod atomic {
    pub use std::sync::atomic::*;
}

#[cfg(paradigm_race)]
pub use model::{
    Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard, WaitTimeoutResult,
};

#[cfg(paradigm_race)]
pub mod atomic {
    pub use super::model::atomic::*;
    pub use std::sync::atomic::Ordering;
}

#[cfg(paradigm_race)]
mod model {
    use crate::sched::{self, Op, OpKind};
    use std::cell::UnsafeCell;
    use std::marker::PhantomData;
    use std::mem::ManuallyDrop;
    use std::ops::{Deref, DerefMut};
    use std::panic::Location;
    use std::sync::{LockResult, PoisonError};
    use std::time::Duration;

    /// Marker making guards `!Send` (like std's) — a guard migrating across
    /// threads would desynchronize the model's holder bookkeeping.
    type NotSend = PhantomData<*const ()>;

    fn timestamp(dur: Duration) -> u64 {
        sched::now_ns().saturating_add(u64::try_from(dur.as_nanos()).unwrap_or(u64::MAX))
    }

    // -- Mutex ------------------------------------------------------------

    pub struct Mutex<T: ?Sized> {
        class: &'static Location<'static>,
        value: UnsafeCell<T>,
    }

    unsafe impl<T: ?Sized + Send> Send for Mutex<T> {}
    unsafe impl<T: ?Sized + Send> Sync for Mutex<T> {}

    impl<T> Mutex<T> {
        #[track_caller]
        pub const fn new(value: T) -> Mutex<T> {
            Mutex { class: Location::caller(), value: UnsafeCell::new(value) }
        }

        pub fn into_inner(self) -> LockResult<T> {
            let addr = &self as *const _ as usize;
            let poisoned = sched::obj_poisoned(addr);
            sched::retire_obj(addr);
            let this = ManuallyDrop::new(self);
            let value = unsafe { this.value.get().read() };
            if poisoned {
                Err(PoisonError::new(value))
            } else {
                Ok(value)
            }
        }
    }

    impl<T: ?Sized> Mutex<T> {
        #[track_caller]
        pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
            let addr = self as *const _ as *const () as usize;
            let class = self.class;
            let site = Location::caller();
            let out = sched::schedule_point(move |st| {
                let obj = sched::resolve_obj(st, addr, sched::ObjKind::Mutex, class);
                let mut op = Op::base(OpKind::Lock, site);
                op.obj = obj;
                op
            });
            let guard = MutexGuard { lock: self, _not_send: PhantomData };
            if out.poisoned {
                Err(PoisonError::new(guard))
            } else {
                Ok(guard)
            }
        }

        pub fn get_mut(&mut self) -> LockResult<&mut T> {
            let addr = self as *const _ as *const () as usize;
            let value = unsafe { &mut *self.value.get() };
            if sched::obj_poisoned(addr) {
                Err(PoisonError::new(value))
            } else {
                Ok(value)
            }
        }
    }

    impl<T: ?Sized> Drop for Mutex<T> {
        fn drop(&mut self) {
            sched::retire_obj(self as *const _ as *const () as usize);
        }
    }

    impl<T: Default> Default for Mutex<T> {
        #[track_caller]
        fn default() -> Self {
            Mutex::new(T::default())
        }
    }

    impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for Mutex<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("Mutex").finish_non_exhaustive()
        }
    }

    pub struct MutexGuard<'a, T: ?Sized> {
        lock: &'a Mutex<T>,
        _not_send: NotSend,
    }

    impl<T: ?Sized> Deref for MutexGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            unsafe { &*self.lock.value.get() }
        }
    }

    impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            unsafe { &mut *self.lock.value.get() }
        }
    }

    impl<T: ?Sized> Drop for MutexGuard<'_, T> {
        #[track_caller]
        fn drop(&mut self) {
            let addr = self.lock as *const _ as *const () as usize;
            let class = self.lock.class;
            let site = Location::caller();
            let poison = std::thread::panicking() && !sched::unwinding_abort();
            sched::schedule_point(move |st| {
                let obj = sched::resolve_obj(st, addr, sched::ObjKind::Mutex, class);
                let mut op = Op::base(OpKind::Unlock, site);
                op.obj = obj;
                op.flag = poison;
                op
            });
        }
    }

    // -- Condvar ----------------------------------------------------------

    pub struct Condvar {
        class: &'static Location<'static>,
    }

    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct WaitTimeoutResult(pub(crate) bool);

    impl WaitTimeoutResult {
        pub fn timed_out(&self) -> bool {
            self.0
        }
    }

    impl Condvar {
        #[track_caller]
        pub const fn new() -> Condvar {
            Condvar { class: Location::caller() }
        }

        #[track_caller]
        pub fn wait<'a, T: ?Sized>(
            &self,
            guard: MutexGuard<'a, T>,
        ) -> LockResult<MutexGuard<'a, T>> {
            let (g, _) = self.wait_inner(guard, None);
            g
        }

        #[track_caller]
        pub fn wait_timeout<'a, T: ?Sized>(
            &self,
            guard: MutexGuard<'a, T>,
            dur: Duration,
        ) -> LockResult<(MutexGuard<'a, T>, WaitTimeoutResult)> {
            let (g, timed_out) = self.wait_inner(guard, Some(dur));
            match g {
                Ok(g) => Ok((g, WaitTimeoutResult(timed_out))),
                Err(p) => Err(PoisonError::new((p.into_inner(), WaitTimeoutResult(timed_out)))),
            }
        }

        #[track_caller]
        fn wait_inner<'a, T: ?Sized>(
            &self,
            guard: MutexGuard<'a, T>,
            dur: Option<Duration>,
        ) -> (LockResult<MutexGuard<'a, T>>, bool) {
            let mutex = guard.lock;
            // The model releases the mutex as part of the CvWait operation;
            // the guard must not run its unlock on drop.
            std::mem::forget(guard);
            let cv_addr = self as *const _ as usize;
            let mx_addr = mutex as *const _ as *const () as usize;
            let cv_class = self.class;
            let mx_class = mutex.class;
            let site = Location::caller();
            let deadline = dur.map(timestamp).unwrap_or(u64::MAX);
            let out = sched::schedule_point(move |st| {
                let cv = sched::resolve_obj(st, cv_addr, sched::ObjKind::Cv, cv_class);
                let mx = sched::resolve_obj(st, mx_addr, sched::ObjKind::Mutex, mx_class);
                let mut op = Op::base(OpKind::CvWait, site);
                op.obj = cv;
                op.obj2 = mx;
                op.deadline = deadline;
                op
            });
            let guard = MutexGuard { lock: mutex, _not_send: PhantomData };
            let res = if out.poisoned { Err(PoisonError::new(guard)) } else { Ok(guard) };
            (res, out.timed_out)
        }

        #[track_caller]
        pub fn notify_one(&self) {
            self.notify(OpKind::CvNotifyOne);
        }

        #[track_caller]
        pub fn notify_all(&self) {
            self.notify(OpKind::CvNotifyAll);
        }

        #[track_caller]
        fn notify(&self, kind: OpKind) {
            let addr = self as *const _ as usize;
            let class = self.class;
            let site = Location::caller();
            sched::schedule_point(move |st| {
                let cv = sched::resolve_obj(st, addr, sched::ObjKind::Cv, class);
                let mut op = Op::base(kind, site);
                op.obj = cv;
                op
            });
        }
    }

    impl Default for Condvar {
        #[track_caller]
        fn default() -> Self {
            Condvar::new()
        }
    }

    impl Drop for Condvar {
        fn drop(&mut self) {
            sched::retire_obj(self as *const _ as usize);
        }
    }

    impl std::fmt::Debug for Condvar {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("Condvar").finish_non_exhaustive()
        }
    }

    // -- RwLock -----------------------------------------------------------

    pub struct RwLock<T: ?Sized> {
        class: &'static Location<'static>,
        value: UnsafeCell<T>,
    }

    unsafe impl<T: ?Sized + Send> Send for RwLock<T> {}
    unsafe impl<T: ?Sized + Send + Sync> Sync for RwLock<T> {}

    impl<T> RwLock<T> {
        #[track_caller]
        pub const fn new(value: T) -> RwLock<T> {
            RwLock { class: Location::caller(), value: UnsafeCell::new(value) }
        }

        pub fn into_inner(self) -> LockResult<T> {
            let addr = &self as *const _ as usize;
            let poisoned = sched::obj_poisoned(addr);
            sched::retire_obj(addr);
            let this = ManuallyDrop::new(self);
            let value = unsafe { this.value.get().read() };
            if poisoned {
                Err(PoisonError::new(value))
            } else {
                Ok(value)
            }
        }
    }

    impl<T: ?Sized> RwLock<T> {
        #[track_caller]
        pub fn read(&self) -> LockResult<RwLockReadGuard<'_, T>> {
            let out = self.acquire(OpKind::RwRead, Location::caller());
            let guard = RwLockReadGuard { lock: self, _not_send: PhantomData };
            if out.poisoned {
                Err(PoisonError::new(guard))
            } else {
                Ok(guard)
            }
        }

        #[track_caller]
        pub fn write(&self) -> LockResult<RwLockWriteGuard<'_, T>> {
            let out = self.acquire(OpKind::RwWrite, Location::caller());
            let guard = RwLockWriteGuard { lock: self, _not_send: PhantomData };
            if out.poisoned {
                Err(PoisonError::new(guard))
            } else {
                Ok(guard)
            }
        }

        fn acquire(&self, kind: OpKind, site: &'static Location<'static>) -> sched::EffectOut {
            let addr = self as *const _ as *const () as usize;
            let class = self.class;
            sched::schedule_point(move |st| {
                let obj = sched::resolve_obj(st, addr, sched::ObjKind::Rw, class);
                let mut op = Op::base(kind, site);
                op.obj = obj;
                op
            })
        }

        fn release(&self, kind: OpKind, poison: bool, site: &'static Location<'static>) {
            let addr = self as *const _ as *const () as usize;
            let class = self.class;
            sched::schedule_point(move |st| {
                let obj = sched::resolve_obj(st, addr, sched::ObjKind::Rw, class);
                let mut op = Op::base(kind, site);
                op.obj = obj;
                op.flag = poison;
                op
            });
        }
    }

    impl<T: ?Sized> Drop for RwLock<T> {
        fn drop(&mut self) {
            sched::retire_obj(self as *const _ as *const () as usize);
        }
    }

    impl<T: Default> Default for RwLock<T> {
        #[track_caller]
        fn default() -> Self {
            RwLock::new(T::default())
        }
    }

    impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for RwLock<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("RwLock").finish_non_exhaustive()
        }
    }

    pub struct RwLockReadGuard<'a, T: ?Sized> {
        lock: &'a RwLock<T>,
        _not_send: NotSend,
    }

    impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            unsafe { &*self.lock.value.get() }
        }
    }

    impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
        #[track_caller]
        fn drop(&mut self) {
            self.lock.release(OpKind::RwUnlockRead, false, Location::caller());
        }
    }

    pub struct RwLockWriteGuard<'a, T: ?Sized> {
        lock: &'a RwLock<T>,
        _not_send: NotSend,
    }

    impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            unsafe { &*self.lock.value.get() }
        }
    }

    impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            unsafe { &mut *self.lock.value.get() }
        }
    }

    impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
        #[track_caller]
        fn drop(&mut self) {
            let poison = std::thread::panicking() && !sched::unwinding_abort();
            self.lock.release(OpKind::RwUnlockWrite, poison, Location::caller());
        }
    }

    // -- Atomics ----------------------------------------------------------

    pub mod atomic {
        use crate::sched::{self, Op, OpKind};
        use std::cell::UnsafeCell;
        use std::panic::Location;
        pub use std::sync::atomic::Ordering;

        fn ordering_note(o: Ordering) -> &'static str {
            match o {
                Ordering::Relaxed => "Relaxed",
                Ordering::Acquire => "Acquire",
                Ordering::Release => "Release",
                Ordering::AcqRel => "AcqRel",
                Ordering::SeqCst => "SeqCst",
                _ => "?",
            }
        }

        macro_rules! shim_atomic {
            ($name:ident, $ty:ty, int) => {
                shim_atomic!($name, $ty, base);

                impl $name {
                    #[track_caller]
                    pub fn fetch_add(&self, val: $ty, order: Ordering) -> $ty {
                        self.rmw(order, |v| v.wrapping_add(val))
                    }

                    #[track_caller]
                    pub fn fetch_sub(&self, val: $ty, order: Ordering) -> $ty {
                        self.rmw(order, |v| v.wrapping_sub(val))
                    }

                    #[track_caller]
                    pub fn fetch_max(&self, val: $ty, order: Ordering) -> $ty {
                        self.rmw(order, |v| v.max(val))
                    }

                    #[track_caller]
                    pub fn fetch_min(&self, val: $ty, order: Ordering) -> $ty {
                        self.rmw(order, |v| v.min(val))
                    }
                }
            };
            ($name:ident, $ty:ty, base) => {
                pub struct $name {
                    class: &'static Location<'static>,
                    v: UnsafeCell<$ty>,
                }

                unsafe impl Send for $name {}
                unsafe impl Sync for $name {}

                impl $name {
                    #[track_caller]
                    pub const fn new(v: $ty) -> $name {
                        $name { class: Location::caller(), v: UnsafeCell::new(v) }
                    }

                    /// One scheduling point; the memory operation itself runs
                    /// with the baton held, i.e. indivisibly.
                    #[track_caller]
                    fn point(&self, kind: OpKind, order: Ordering) {
                        let addr = self as *const _ as usize;
                        let class = self.class;
                        let note = ordering_note(order);
                        let site = Location::caller();
                        sched::schedule_point(move |st| {
                            let obj = sched::resolve_obj(st, addr, sched::ObjKind::Atomic, class);
                            let mut op = Op::base(kind, site);
                            op.obj = obj;
                            op.note = note;
                            op
                        });
                    }

                    #[track_caller]
                    fn rmw(&self, order: Ordering, f: impl FnOnce($ty) -> $ty) -> $ty {
                        self.point(OpKind::AtomicRmw, order);
                        let p = self.v.get();
                        unsafe {
                            let old = *p;
                            *p = f(old);
                            old
                        }
                    }

                    #[track_caller]
                    pub fn load(&self, order: Ordering) -> $ty {
                        self.point(OpKind::AtomicLoad, order);
                        unsafe { *self.v.get() }
                    }

                    #[track_caller]
                    pub fn store(&self, val: $ty, order: Ordering) {
                        self.point(OpKind::AtomicStore, order);
                        unsafe { *self.v.get() = val }
                    }

                    #[track_caller]
                    pub fn swap(&self, val: $ty, order: Ordering) -> $ty {
                        self.rmw(order, |_| val)
                    }

                    #[track_caller]
                    #[allow(clippy::result_unit_err)]
                    pub fn compare_exchange(
                        &self,
                        current: $ty,
                        new: $ty,
                        success: Ordering,
                        _failure: Ordering,
                    ) -> Result<$ty, $ty> {
                        self.point(OpKind::AtomicRmw, success);
                        let p = self.v.get();
                        unsafe {
                            let old = *p;
                            if old == current {
                                *p = new;
                                Ok(old)
                            } else {
                                Err(old)
                            }
                        }
                    }

                    #[track_caller]
                    pub fn compare_exchange_weak(
                        &self,
                        current: $ty,
                        new: $ty,
                        success: Ordering,
                        failure: Ordering,
                    ) -> Result<$ty, $ty> {
                        self.compare_exchange(current, new, success, failure)
                    }

                    pub fn into_inner(self) -> $ty {
                        sched::retire_obj(&self as *const _ as usize);
                        let this = std::mem::ManuallyDrop::new(self);
                        unsafe { *this.v.get() }
                    }

                    pub fn get_mut(&mut self) -> &mut $ty {
                        unsafe { &mut *self.v.get() }
                    }
                }

                impl Default for $name {
                    #[track_caller]
                    fn default() -> Self {
                        $name::new(Default::default())
                    }
                }

                impl From<$ty> for $name {
                    #[track_caller]
                    fn from(v: $ty) -> Self {
                        $name::new(v)
                    }
                }

                impl Drop for $name {
                    fn drop(&mut self) {
                        sched::retire_obj(self as *const _ as usize);
                    }
                }

                impl std::fmt::Debug for $name {
                    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                        f.debug_struct(stringify!($name)).finish_non_exhaustive()
                    }
                }
            };
        }

        shim_atomic!(AtomicU64, u64, int);
        shim_atomic!(AtomicU32, u32, int);
        shim_atomic!(AtomicUsize, usize, int);
        shim_atomic!(AtomicI64, i64, int);
        shim_atomic!(AtomicBool, bool, base);

        impl AtomicBool {
            #[track_caller]
            pub fn fetch_or(&self, val: bool, order: Ordering) -> bool {
                self.rmw(order, |v| v || val)
            }

            #[track_caller]
            pub fn fetch_and(&self, val: bool, order: Ordering) -> bool {
                self.rmw(order, |v| v && val)
            }
        }
    }
}
