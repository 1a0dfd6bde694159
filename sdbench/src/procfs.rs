//! Readers for the server process's CPU time and peak resident set,
//! from `/proc/<pid>/stat` and `/proc/<pid>/status`.

use std::process::Command;

/// `utime + stime` in clock ticks from the text of `/proc/<pid>/stat`.
/// The command name (field 2) may contain spaces and parentheses, so
/// fields are counted from the last `)`.
pub fn cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After the name: state is field 3, utime field 14, stime field 15.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// `VmHWM` (peak resident set) in KiB from the text of
/// `/proc/<pid>/status`.
pub fn vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line["VmHWM:".len()..]
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// CPU seconds (user + system, all threads) the process has used.
pub fn cpu_seconds(pid: u32, ticks_per_s: f64) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    Some(cpu_ticks(&stat)? as f64 / ticks_per_s)
}

/// Peak resident set of the process in MiB.
pub fn peak_rss_mib(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    Some(vm_hwm_kib(&status)? as f64 / 1024.0)
}

/// The kernel's clock-tick rate for `/proc` times (`getconf CLK_TCK`),
/// falling back to the Linux default of 100.
pub fn ticks_per_second() -> f64 {
    Command::new("getconf")
        .arg("CLK_TCK")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_reader_skips_odd_command_names() {
        let stat = "4242 (sd (served) x) S 1 4242 4242 0 -1 4194560 900 0 0 0 \
                    1234 567 0 0 20 0 6 0 100 1000000 200 18446744073709551615";
        assert_eq!(cpu_ticks(stat), Some(1234 + 567));
        assert_eq!(cpu_ticks("garbage"), None);
        assert_eq!(cpu_ticks("1 (x) S 1 2"), None);
    }

    #[test]
    fn status_reader_finds_vm_hwm() {
        let status = "Name:\tsdserved\nVmPeak:\t  100 kB\nVmHWM:\t   61840 kB\nVmRSS:\t 5 kB\n";
        assert_eq!(vm_hwm_kib(status), Some(61840));
        assert_eq!(vm_hwm_kib("Name:\tx\n"), None);
    }

    #[test]
    fn readers_work_on_this_process() {
        let pid = std::process::id();
        assert!(cpu_seconds(pid, ticks_per_second()).is_some());
        assert!(peak_rss_mib(pid).unwrap() > 0.0);
    }
}
