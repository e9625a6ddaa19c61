//! Keep the CPUs out of their idle state while a run measures.
//!
//! On a virtual machine, a CPU with nothing to run halts and hands its
//! physical core back to the hypervisor; waking it for the next request
//! then costs whatever the host's scheduler charges, from microseconds to
//! milliseconds depending on other tenants. A request that waits for a
//! pool thread to wake would measure the host, not the server. One
//! spinning thread per CPU at `SCHED_IDLE` priority runs only when
//! nothing else wants that CPU and is preempted at once when a server
//! thread wakes, so the CPU never halts — the software equivalent of
//! booting with `idle=poll`, as latency benchmarks usually do.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

pub struct IdleSpinners {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl IdleSpinners {
    pub fn start() -> IdleSpinners {
        let n = std::thread::available_parallelism().map_or(1, |n| n.get());
        let stop = Arc::new(AtomicBool::new(false));
        let threads = (0..n)
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    if !lowest_priority() {
                        // A spinner at normal priority would compete with
                        // the server; run without one instead.
                        return;
                    }
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        IdleSpinners { stop, threads }
    }
}

impl Drop for IdleSpinners {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            // A spinner has nothing to panic on; ignore the impossible.
            let _ = t.join();
        }
    }
}

/// Move the calling thread to `SCHED_IDLE`; `false` if that failed.
#[cfg(target_os = "linux")]
fn lowest_priority() -> bool {
    use std::os::raw::c_int;
    #[repr(C)]
    struct SchedParam {
        sched_priority: c_int,
    }
    extern "C" {
        fn sched_setscheduler(pid: c_int, policy: c_int, param: *const SchedParam) -> c_int;
    }
    const SCHED_IDLE: c_int = 5;
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: `param` is a valid `struct sched_param` that outlives the
    // call; pid 0 names the calling thread, and lowering one's own
    // policy to SCHED_IDLE needs no privilege and affects no memory.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &param) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn lowest_priority() -> bool {
    false
}
