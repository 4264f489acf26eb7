//! What the host did to a run, read from procfs: the CPU time the
//! hypervisor stole from the machine, and the CPU time this process used.
//!
//! On a shared virtual machine the hypervisor runs other guests on the
//! machine's cores, and the time it takes while this guest wanted to run
//! is charged to `steal` in `/proc/stat`. The end-to-end timings are on
//! the wall clock with that stolen time taken out (see
//! [`Run::busy_s`](crate::drive::Run::busy_s)); everything else the run
//! waits on — fsync, the coalescing window, locks, idle workers — stays
//! in.

/// `/proc/stat` and `/proc/<pid>/stat` count in these ticks per second
/// (`USER_HZ`, fixed at 100 in the Linux user ABI).
const USER_HZ: f64 = 100.0;

/// A reading of the host's counters.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Steal time summed over every CPU, seconds.
    steal_s: f64,
    /// Online CPUs.
    cpus: usize,
    /// User + system CPU time of this process, seconds.
    process_s: f64,
}

impl Sample {
    /// Reads the counters now.
    pub fn now() -> Result<Sample, String> {
        let stat = read("/proc/stat")?;
        let mut lines = stat.lines();
        // cpu  user nice system idle iowait irq softirq steal ...
        let steal = lines
            .next()
            .and_then(|l| l.strip_prefix("cpu "))
            .and_then(|l| l.split_whitespace().nth(7))
            .and_then(|v| v.parse::<f64>().ok())
            .ok_or("no steal column in /proc/stat")?;
        let cpus = lines
            .filter(|l| {
                l.strip_prefix("cpu")
                    .is_some_and(|rest| rest.starts_with(|c: char| c.is_ascii_digit()))
            })
            .count()
            .max(1);
        // pid (comm) state ... utime stime: fields 14 and 15, counted
        // after the parenthesised command name, which may hold spaces.
        let own = read("/proc/self/stat")?;
        let after_comm = own.rsplit_once(')').ok_or("malformed /proc/self/stat")?.1;
        let mut fields = after_comm.split_whitespace().skip(11);
        let mut tick = || fields.next().and_then(|v| v.parse::<f64>().ok());
        let (utime, stime) = tick()
            .zip(tick())
            .ok_or("no utime/stime in /proc/self/stat")?;
        Ok(Sample {
            steal_s: steal / USER_HZ,
            cpus,
            process_s: (utime + stime) / USER_HZ,
        })
    }

    /// Steal between `self` and the later `end`, per CPU: the wall time
    /// the machine lost, were every CPU runnable throughout.
    pub fn steal_per_cpu_s(&self, end: &Sample) -> f64 {
        (end.steal_s - self.steal_s).max(0.0) / self.cpus as f64
    }

    /// This process's CPU time between `self` and the later `end`, as a
    /// share of what the machine's CPUs could give over `busy_s`.
    pub fn cpu_share(&self, end: &Sample, busy_s: f64) -> f64 {
        (end.process_s - self.process_s) / (self.cpus as f64 * busy_s)
    }
}

/// The steal per CPU a serve accrued, read every so often while it ran:
/// `(seconds since the serve started, steal per CPU so far)`, ascending
/// in both. Steal comes in bursts, so each latency has the steal of its
/// own interval taken out (see [`StealTimeline::between`]), not the
/// serve's average share.
#[derive(Debug, Clone)]
pub struct StealTimeline(Vec<(f64, f64)>);

impl Default for StealTimeline {
    fn default() -> StealTimeline {
        StealTimeline(vec![(0.0, 0.0)])
    }
}

impl StealTimeline {
    /// Records that `steal_s` per CPU had accrued `at_s` into the serve.
    pub fn push(&mut self, at_s: f64, steal_s: f64) {
        let last = self.total_s();
        self.0.push((at_s, steal_s.max(last)));
    }

    /// The steal per CPU over the whole serve.
    pub fn total_s(&self) -> f64 {
        self.0.last().map_or(0.0, |&(_, s)| s)
    }

    /// The steal per CPU accrued by `at_s`, interpolated linearly between
    /// the readings around it.
    fn at(&self, at_s: f64) -> f64 {
        let i = self.0.partition_point(|&(t, _)| t <= at_s);
        match (i.checked_sub(1).map(|j| self.0[j]), self.0.get(i)) {
            (Some((t0, s0)), Some(&(t1, s1))) if t1 > t0 => {
                s0 + (s1 - s0) * (at_s - t0) / (t1 - t0)
            }
            (Some((_, s0)), _) => s0,
            (None, _) => 0.0,
        }
    }

    /// The steal per CPU accrued between `from_s` and `to_s`.
    pub fn between(&self, from_s: f64, to_s: f64) -> f64 {
        self.at(to_s) - self.at(from_s)
    }
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}
