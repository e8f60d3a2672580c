//! The open-loop due-time scheduler.
//!
//! An open loop sends on a schedule whatever the server does. The
//! schedule is a list of due times; the generator asks the scheduler
//! which request is due *now*, and times each request from its due time
//! and not from the moment it was actually sent, so a stall in the
//! generator or the server is charged to every request it delayed. The
//! scheduler is handed the time, so a test can drive it with a fake clock.

/// Walks a list of due times (µs, ascending) and hands out each request
/// exactly once, in order, as soon as the clock has reached it.
#[derive(Debug)]
pub struct DueSchedule<'a> {
    due_us: &'a [u64],
    next: usize,
}

impl<'a> DueSchedule<'a> {
    /// A schedule over ascending due times.
    pub fn new(due_us: &'a [u64]) -> Self {
        DueSchedule { due_us, next: 0 }
    }

    /// The next request that is due at `now_us`, as `(index, due_us)`;
    /// `None` when the next one lies in the future or none is left.
    /// After a stall, repeated calls return the backlog one by one,
    /// each with its own (past) due time.
    pub fn poll(&mut self, now_us: u64) -> Option<(usize, u64)> {
        let due = *self.due_us.get(self.next)?;
        (due <= now_us).then(|| {
            self.next += 1;
            (self.next - 1, due)
        })
    }

    /// Whether every request has been handed out.
    pub fn is_done(&self) -> bool {
        self.next >= self.due_us.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock the test moves by hand.
    struct FakeClock(Cell<u64>);

    impl FakeClock {
        fn now_us(&self) -> u64 {
            self.0.get()
        }
    }

    #[test]
    fn requests_are_released_at_their_due_time_and_not_before() {
        let due = [100, 200, 300];
        let clock = FakeClock(Cell::new(0));
        let mut schedule = DueSchedule::new(&due);
        assert_eq!(schedule.poll(clock.now_us()), None);
        clock.0.set(99);
        assert_eq!(schedule.poll(clock.now_us()), None);
        clock.0.set(100);
        assert_eq!(schedule.poll(clock.now_us()), Some((0, 100)));
        assert_eq!(schedule.poll(clock.now_us()), None);
        assert!(!schedule.is_done());
    }

    #[test]
    fn a_stall_is_charged_to_every_request_it_delayed() {
        let due = [100, 200, 300, 10_000];
        let clock = FakeClock(Cell::new(0));
        let mut schedule = DueSchedule::new(&due);
        // The generator stalls until t = 1000: three requests are late.
        clock.0.set(1_000);
        let mut lags = Vec::new();
        while let Some((i, due_us)) = schedule.poll(clock.now_us()) {
            lags.push((i, clock.now_us() - due_us));
        }
        assert_eq!(lags, vec![(0, 900), (1, 800), (2, 700)]);
        // A reply seen at t = 1500 has latency from its due time.
        clock.0.set(1_500);
        assert_eq!(clock.now_us() - due[0], 1_400);
        assert!(!schedule.is_done());
        clock.0.set(10_000);
        assert_eq!(schedule.poll(clock.now_us()), Some((3, 10_000)));
        assert!(schedule.is_done());
        assert_eq!(schedule.poll(u64::MAX), None);
    }
}
