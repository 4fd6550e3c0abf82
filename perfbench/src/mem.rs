//! Resident memory of this process, read from `/proc/self/status`.

/// A `/proc/self/status` field in kB, converted to MiB.
fn status_mb(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))?;
    let kb: u64 = line.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kb as f64 / 1024.0)
}

/// Peak resident memory of the process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    status_mb("VmHWM")
}

#[cfg(test)]
mod tests {
    #[test]
    fn reads_peak_resident_memory() {
        let block = vec![1u8; 64 << 20];
        std::hint::black_box(&block);
        let peak = super::peak_rss_mb().expect("VmHWM");
        assert!(peak >= 64.0, "a resident 64 MiB block, yet a peak of {peak} MiB");
    }
}
