// SS-DET-001 (`thread::sleep`) clean side: virtual time advances through the
// scheduler, and wall-clock blocking is confined to test code.
pub fn advance(sched: &mut Scheduler) {
    sched.schedule_in(250, wake);
    sched.run_until(1_000);
}

#[cfg(test)]
mod tests {
    fn slow_test() {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}
