//! `set_threads` racing region starts on another thread. One thread
//! cycles the pool over 2, 4 and 3 threads while another submits
//! 16-task regions, until each has done 600; both must finish. The pair
//! runs on detached threads under a watchdog, so a deadlock fails this
//! test instead of hanging the binary (the pool is process-global,
//! hence a binary of its own).

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

const ROUNDS: usize = 600;
const WATCHDOG: Duration = Duration::from_secs(8);

#[test]
fn resizes_racing_region_starts_finish() {
    let (done_tx, done_rx) = mpsc::channel::<()>();
    let resizer_done = done_tx.clone();
    let stop = Arc::new(AtomicBool::new(false));
    let regions = Arc::new(AtomicUsize::new(0));
    let (resizer_stop, resizer_regions) = (stop.clone(), regions.clone());
    std::thread::spawn(move || {
        let mut k = 0;
        while k < ROUNDS || resizer_regions.load(Ordering::SeqCst) < ROUNDS {
            dp_pool::set_threads([2, 4, 3][k % 3]);
            k += 1;
        }
        resizer_stop.store(true, Ordering::SeqCst);
        let _ = resizer_done.send(());
    });
    std::thread::spawn(move || {
        while !stop.load(Ordering::SeqCst) {
            let hits: Vec<AtomicUsize> = (0..16).map(|_| AtomicUsize::new(0)).collect();
            dp_pool::parallel_for(16, &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1), "every index runs once");
            regions.fetch_add(1, Ordering::SeqCst);
        }
        let _ = done_tx.send(());
    });
    let deadline = Instant::now() + WATCHDOG;
    for _ in 0..2 {
        let left = deadline.saturating_duration_since(Instant::now());
        if let Err(e) = done_rx.recv_timeout(left) {
            panic!("set_threads and parallel_for did not both finish within {WATCHDOG:?}: {e}");
        }
    }
}
