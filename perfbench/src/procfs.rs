//! Zero-dependency readers for the two process figures the benchmark
//! reports from the kernel: peak resident set (`VmHWM` in
//! `/proc/self/status`) and user+system CPU time (`utime` + `stime` in
//! `/proc/self/stat`, which sums every thread of the process, dead or
//! alive — the scoped lane workers included).

use std::fs;

/// `AT_CLKTCK` in the ELF auxiliary vector: the unit of `utime`/`stime`.
const AT_CLKTCK: u64 = 17;

/// Peak resident set size in kB, parsed from `/proc/<pid>/status` text.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let value: u64 = fields.next()?.parse().ok()?;
    match fields.next() {
        Some("kB") | None => Some(value),
        Some(_) => None,
    }
}

/// `utime + stime` in clock ticks, parsed from `/proc/<pid>/stat` text.
/// The command name (field 2) may hold spaces and parentheses, so the
/// fields are counted from the *last* `)`.
pub fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // After the name: state is field 3, utime field 14, stime field 15.
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// The clock-tick rate from native-endian `/proc/<pid>/auxv` bytes.
pub fn parse_clk_tck(auxv: &[u8]) -> Option<u64> {
    auxv.chunks_exact(16).find_map(|pair| {
        let key = u64::from_ne_bytes(pair[..8].try_into().ok()?);
        let value = u64::from_ne_bytes(pair[8..].try_into().ok()?);
        (key == AT_CLKTCK && value > 0).then_some(value)
    })
}

/// This process's peak resident set in MB (1 MB = 1024 kB).
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("procfs: /proc/self/status");
    let kb = parse_vm_hwm_kb(&status).expect("procfs: VmHWM line");
    kb as f64 / 1024.0
}

/// A CPU-time clock for this process.
pub struct CpuClock {
    ticks_per_s: f64,
}

impl CpuClock {
    /// Reads the tick rate once; falls back to Linux's fixed `USER_HZ`
    /// of 100 if the auxiliary vector is unreadable.
    pub fn new() -> CpuClock {
        let hz = fs::read("/proc/self/auxv")
            .ok()
            .and_then(|auxv| parse_clk_tck(&auxv))
            .unwrap_or(100);
        CpuClock {
            ticks_per_s: hz as f64,
        }
    }

    /// User+system CPU seconds consumed by this process so far.
    pub fn now_s(&self) -> f64 {
        let stat = fs::read_to_string("/proc/self/stat").expect("procfs: /proc/self/stat");
        parse_cpu_ticks(&stat).expect("procfs: utime/stime fields") as f64 / self.ticks_per_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS: &str = "Name:\tcatenet-perfben\nUmask:\t0022\nState:\tR (running)\n\
        VmPeak:\t  412344 kB\nVmSize:\t  398120 kB\nVmLck:\t       0 kB\n\
        VmHWM:\t  181236 kB\nVmRSS:\t  176004 kB\nThreads:\t1\n";

    #[test]
    fn vm_hwm_is_read_in_kb() {
        assert_eq!(parse_vm_hwm_kb(STATUS), Some(181_236));
    }

    #[test]
    fn vm_hwm_missing_or_garbled_is_none() {
        assert_eq!(parse_vm_hwm_kb("Name:\tx\nVmRSS:\t 10 kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t lots kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t 10 MB\n"), None);
    }

    #[test]
    fn cpu_ticks_sum_utime_and_stime() {
        let stat = "4242 (catenet-perfben) R 4200 4242 4200 34816 4242 4194304 \
            5200 0 0 0 273 19 0 0 20 0 3 0 123456 412344000 45309 \
            18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0";
        assert_eq!(parse_cpu_ticks(stat), Some(292));
    }

    #[test]
    fn cpu_ticks_survive_hostile_command_names() {
        let stat = "17 (a) b) c ) S 1 17 17 0 -1 4194560 \
            1 0 0 0 7 5 0 0 20 0 1 0 99 1000 10 0";
        assert_eq!(parse_cpu_ticks(stat), Some(12));
        assert_eq!(parse_cpu_ticks("17 (short) S 1 2"), None);
        assert_eq!(parse_cpu_ticks("no parentheses at all"), None);
    }

    #[test]
    fn clk_tck_is_found_in_auxv() {
        let mut auxv = Vec::new();
        for (key, value) in [(6u64, 4096u64), (AT_CLKTCK, 250), (0, 0)] {
            auxv.extend_from_slice(&key.to_ne_bytes());
            auxv.extend_from_slice(&value.to_ne_bytes());
        }
        assert_eq!(parse_clk_tck(&auxv), Some(250));
        assert_eq!(parse_clk_tck(&auxv[..16]), None);
    }

    #[test]
    fn live_readers_return_plausible_values() {
        assert!(peak_rss_mb() > 0.0);
        assert!(CpuClock::new().now_s() >= 0.0);
    }
}
