// SS-DET-001 (`thread::sleep`) violating side: blocking waits in sim-backend
// code stall the event loop and never advance virtual time (lines 4 and 9).
pub fn wait_for_probe() {
    std::thread::sleep(POLL_INTERVAL);
}

pub fn busy_wait(deadline: u64) {
    while now_ms() < deadline {
        std::thread::sleep(BACKOFF);
    }
}
