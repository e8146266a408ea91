//! One core for the whole process.
//!
//! Two things force this on a 2-core shared box. Unconfined, 4 of 30
//! runs hung inside the system: `shims/crossbeam`'s `wake_receiver` can
//! lose a wake-up when sender and receiver really run at the same time,
//! and a broker shard worker then sleeps on a non-empty queue for good
//! (see the README; the fix belongs to the system, which this package
//! may not touch). A hung run is a failed run, so until that is fixed
//! the generator may not run beside the system's threads, on this core
//! or another. And where runs did finish, the same relay ran at
//! anything from 0.3 M to 1.6 M events/s depending on which threads the
//! scheduler happened to put on which core — whole epochs at a time.
//!
//! So the benchmark confines itself (and every thread the system under
//! test starts, which inherit the mask) to one core before anything
//! else runs. What it measures is therefore the CPU cost of the whole
//! path per event, all threads summed, context switches included; it
//! makes no statement about scaling across cores or about cross-core
//! hand-off latency.

/// Confines the process to the highest-numbered CPU it is allowed on
/// (away from CPU 0, where this box takes its interrupts) and returns
/// that CPU; `None` where the platform has no such call or it fails,
/// in which case the run goes on unconfined.
pub fn confine_to_one_core() -> Option<usize> {
    imp::confine()
}

#[cfg(target_os = "linux")]
mod imp {
    /// `cpu_set_t`: 1024 bits.
    type CpuSet = [u64; 16];

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    }

    pub fn confine() -> Option<usize> {
        let mut allowed: CpuSet = [0; 16];
        // SAFETY: `allowed` is a live, writable buffer of exactly the
        // size passed; pid 0 names the calling thread, and the process
        // is still single-threaded when this runs.
        if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut allowed) } != 0 {
            return None;
        }
        let cpu = (0..1024)
            .rev()
            .find(|cpu| allowed[cpu / 64] >> (cpu % 64) & 1 == 1)?;
        let mut one: CpuSet = [0; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `one` is a live buffer of exactly the size passed and
        // names a CPU the kernel just reported as allowed.
        (unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) } == 0).then_some(cpu)
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    pub fn confine() -> Option<usize> {
        None
    }
}
