//! Process-memory probes (the repo benchmark's `peak_rss_mb`).
//!
//! Reads the kernel's accounting from `/proc/self/status` (Linux): `VmRSS`
//! is the current resident set, `VmHWM` its high-water mark — the peak the
//! process ever held, which is what a "does 10⁶ profiles fit" budget
//! actually constrains. On platforms without procfs the probes return
//! `None`.

/// Current resident set size in bytes, if the platform exposes it.
pub fn current_rss_bytes() -> Option<u64> {
    read_status_kb("VmRSS:").map(|kb| kb * 1024)
}

/// Peak resident set size (high-water mark) in bytes, if available.
pub fn peak_rss_bytes() -> Option<u64> {
    read_status_kb("VmHWM:").map(|kb| kb * 1024)
}

fn read_status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_status_kb(&status, field)
}

/// Extracts a `kB`-denominated field from `/proc/self/status` content.
/// Lines look like `VmHWM:     123456 kB`. Degrades to `None` — never a
/// wrong number — on anything unexpected: a missing line, a non-numeric
/// value, or a unit other than the `kB` the kernel has always printed (if
/// that ever changes, silently treating the value as kB would mis-scale
/// every RSS figure the benchmark records).
fn parse_status_kb(status: &str, field: &str) -> Option<u64> {
    let rest = status.lines().find_map(|line| line.strip_prefix(field))?;
    let mut tokens = rest.split_whitespace();
    let value: u64 = tokens.next()?.parse().ok()?;
    match tokens.next() {
        Some("kB") => Some(value),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_fields() {
        let status = "Name:\tblast\nVmPeak:\t  999 kB\nVmRSS:\t  2048 kB\nVmHWM:\t 4096 kB\n";
        assert_eq!(parse_status_kb(status, "VmRSS:"), Some(2048));
        assert_eq!(parse_status_kb(status, "VmHWM:"), Some(4096));
        assert_eq!(parse_status_kb(status, "VmSwap:"), None);
    }

    #[test]
    fn rejects_malformed_values() {
        assert_eq!(parse_status_kb("VmRSS:\tnot-a-number kB\n", "VmRSS:"), None);
        assert_eq!(parse_status_kb("", "VmRSS:"), None);
    }

    #[test]
    fn missing_lines_degrade_to_none() {
        // A kernel/status format without the field at all.
        let status = "Name:\tblast\nState:\tR (running)\nThreads:\t4\n";
        assert_eq!(parse_status_kb(status, "VmRSS:"), None);
        assert_eq!(parse_status_kb(status, "VmHWM:"), None);
    }

    #[test]
    fn unexpected_units_degrade_to_none() {
        // A unit change must not be silently mis-scaled as kB.
        assert_eq!(parse_status_kb("VmRSS:\t  2048 mB\n", "VmRSS:"), None);
        assert_eq!(parse_status_kb("VmRSS:\t  2048 KB\n", "VmRSS:"), None);
        // ... and a missing unit token likewise.
        assert_eq!(parse_status_kb("VmRSS:\t  2048\n", "VmRSS:"), None);
        // Trailing tokens beyond the unit are tolerated.
        assert_eq!(
            parse_status_kb("VmRSS:\t 2048 kB extra\n", "VmRSS:"),
            Some(2048)
        );
    }

    #[test]
    fn live_probe_is_sane_on_linux() {
        if let Some(rss) = current_rss_bytes() {
            let peak = peak_rss_bytes().expect("VmHWM accompanies VmRSS");
            assert!(rss > 0);
            assert!(peak >= rss / 2, "HWM should be near or above current RSS");
        }
    }
}
