//! Readers for the server process's CPU time (`/proc/<pid>/stat` and
//! its POSIX CPU-time clock) and `/proc/<pid>/status`.

/// Clock ticks per second of the `/proc/<pid>/stat` time fields
/// (`USER_HZ`, fixed at 100 by the Linux ABI).
pub const TICKS_PER_SECOND: f64 = 100.0;

/// `utime + stime` in clock ticks, over every thread of the process,
/// from one `/proc/<pid>/stat` line. The command name is parenthesised
/// and may hold spaces or parentheses itself, so fields are counted
/// after its last `)`.
pub fn cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // Fields after the name start at field 3 (state); utime and stime
    // are fields 14 and 15.
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// A `kB` field of `/proc/<pid>/status` (e.g. `VmHWM`), in KiB.
pub fn status_kib(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let value = line.strip_prefix(key)?.strip_prefix(':')?;
        value.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

pub fn read_cpu_ticks(pid: u32) -> Option<u64> {
    cpu_ticks(&std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?)
}

/// CPU time in nanoseconds of every thread of process `pid`, live or
/// exited, from the process's POSIX CPU-time clock. Unlike the tick
/// counts of `/proc/<pid>/stat` it resolves the sub-second segments of
/// a run.
pub fn read_cpu_ns(pid: u32) -> Option<u64> {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_getcpuclockid(pid: i32, clock: *mut i32) -> i32;
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    let mut clock = 0i32;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: both calls only write through the valid pointers given.
    let ok = unsafe {
        clock_getcpuclockid(i32::try_from(pid).ok()?, &mut clock) == 0
            && clock_gettime(clock, &mut ts) == 0
    };
    ok.then(|| ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
}

pub fn read_status_kib(pid: u32, key: &str) -> Option<u64> {
    status_kib(
        &std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?,
        key,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    // Recorded from a running dbtoasterd.
    const STAT: &str = "48213 (dbtoasterd) S 48190 48190 412 0 -1 4194560 190234 0 0 0 \
        1734 291 0 0 20 0 7 0 9402311 830504960 196002 18446744073709551615 \
        94740871786496 94740874466249 140725834893728 0 0 0 0 4096 17663 0 0 0 17 1 0 0 0 0 0";
    const STATUS: &str = "Name:\tdbtoasterd\nUmask:\t0022\nState:\tS (sleeping)\n\
        VmPeak:\t  811064 kB\nVmSize:\t  811040 kB\nVmHWM:\t  786432 kB\n\
        VmRSS:\t  784008 kB\nThreads:\t7\n";

    #[test]
    fn stat_line_yields_utime_plus_stime() {
        assert_eq!(cpu_ticks(STAT), Some(1734 + 291));
    }

    #[test]
    fn stat_name_with_spaces_and_parens_is_skipped() {
        let odd = STAT.replace("(dbtoasterd)", "(db (toaster) d)");
        assert_eq!(cpu_ticks(&odd), Some(2025));
        assert_eq!(cpu_ticks("48213 (dbtoasterd) S 1 2"), None);
    }

    #[test]
    fn status_fields_parse_in_kib() {
        assert_eq!(status_kib(STATUS, "VmHWM"), Some(786_432));
        assert_eq!(status_kib(STATUS, "VmRSS"), Some(784_008));
        assert_eq!(status_kib(STATUS, "VmSwap"), None);
        assert_eq!(status_kib(STATUS, "Threads"), None);
    }

    #[test]
    fn this_process_is_readable() {
        let pid = std::process::id();
        assert!(read_cpu_ticks(pid).is_some());
        assert!(read_status_kib(pid, "VmHWM").unwrap() > 0);
    }

    #[test]
    fn cpu_clock_of_a_child_counts_its_work() {
        let mut child = std::process::Command::new("sh")
            .args([
                "-c",
                "i=0; while [ $i -lt 20000 ]; do i=$((i+1)); done; sleep 5",
            ])
            .spawn()
            .unwrap();
        let pid = child.id();
        let first = read_cpu_ns(pid).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(300));
        let second = read_cpu_ns(pid).unwrap();
        let ticks = read_cpu_ticks(pid).unwrap();
        child.kill().unwrap();
        child.wait().unwrap();
        assert!(second >= first && second > 0);
        // The clock and the tick counts agree to within a few ticks.
        let from_ticks = ticks as f64 / TICKS_PER_SECOND * 1e9;
        assert!(
            (second as f64 - from_ticks).abs() < 5e7,
            "{second} vs {from_ticks}"
        );
    }
}
