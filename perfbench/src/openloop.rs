//! An open-loop schedule: event `k` falls due at a fixed offset from the
//! start whatever happened to the events before it, so a stall delays
//! every event that falls due during it, and their latency — measured
//! from the due time — includes that wait.

use std::time::{Duration, Instant};

/// Due times at a fixed rate.
#[derive(Debug, Clone)]
pub struct Schedule {
    start: Instant,
    rate: f64,
    excluded: Duration,
}

impl Schedule {
    /// Events at `rate` per second from `start`.
    pub fn new(start: Instant, rate: f64) -> Self {
        Self { start, rate, excluded: Duration::ZERO }
    }

    /// When event `k` falls due.
    pub fn due(&self, k: usize) -> Instant {
        self.start + self.excluded + Duration::from_secs_f64(k as f64 / self.rate)
    }

    /// Sleeps until event `k` is due. Returns how late the wake-up was,
    /// or `None` when the event was already due (a backlog).
    pub fn wait(&self, k: usize) -> Option<Duration> {
        let due = self.due(k);
        let now = Instant::now();
        if now >= due {
            return None;
        }
        std::thread::sleep(due - now);
        Some(due.elapsed())
    }

    /// Takes `d` out of the schedule: every later event falls due `d`
    /// later. Used for time spent on correctness checks.
    pub fn exclude(&mut self, d: Duration) {
        self.excluded += d;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn an_injected_stall_is_charged_to_the_events_due_during_it() {
        let s = Schedule::new(Instant::now(), 100.0);
        let mut latency = Vec::new();
        for k in 0..6 {
            s.wait(k);
            if k == 1 {
                std::thread::sleep(50 * MS);
            }
            latency.push(s.due(k).elapsed());
        }
        // Event 1 carries the stall itself; events 2–4 fell due at
        // 20–40 ms but could only run after it ended at ~60 ms.
        assert!(latency[1] >= 50 * MS, "{latency:?}");
        assert!(latency[2] >= 30 * MS, "{latency:?}");
        assert!(latency[3] >= 20 * MS, "{latency:?}");
        assert!(latency[4] >= 10 * MS, "{latency:?}");
        assert!(latency[0] < latency[2], "{latency:?}");
    }

    #[test]
    fn excluded_time_shifts_later_due_times() {
        let start = Instant::now();
        let mut s = Schedule::new(start, 10.0);
        assert_eq!(s.due(3) - start, 300 * MS);
        s.exclude(25 * MS);
        assert_eq!(s.due(3) - start, 325 * MS);
        assert_eq!(s.due(0) - start, 25 * MS);
    }

    #[test]
    fn waiting_reports_lateness_only_when_it_slept() {
        let s = Schedule::new(Instant::now(), 1000.0);
        assert!(s.wait(0).is_none(), "event 0 is due at once");
        assert!(s.wait(5).is_some_and(|late| late < 50 * MS));
    }
}
