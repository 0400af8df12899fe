//! The host a result was measured on, and the process's own view of
//! its memory and scheduling.

use crate::surface::{effective_parallelism, impl_json_struct};
use std::time::Instant;

/// Provenance stored with every result set, so two sets are never
/// compared without knowing whether they came from the same machine.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HostInfo {
    pub nproc: u64,
    pub cpu_model: String,
    /// Transparent-huge-page mode, as the kernel prints it.
    pub thp: String,
    /// The `FLEXSFP_THREADS` override in effect, empty when unset.
    pub flexsfp_threads: String,
    /// Worker threads the program's own policy allows a parallel region.
    pub effective_parallelism: u64,
    pub rustc: String,
}

impl_json_struct!(HostInfo {
    nproc,
    cpu_model,
    thp,
    flexsfp_threads,
    effective_parallelism,
    rustc
});

impl HostInfo {
    pub fn capture() -> HostInfo {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        HostInfo {
            nproc: std::thread::available_parallelism()
                .map(|n| n.get() as u64)
                .unwrap_or(0),
            cpu_model,
            thp: std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled")
                .map(|s| s.trim().to_string())
                .unwrap_or_else(|_| "unknown".to_string()),
            flexsfp_threads: std::env::var("FLEXSFP_THREADS").unwrap_or_default(),
            effective_parallelism: effective_parallelism() as u64,
            rustc: env!("FLEXBENCH_RUSTC").to_string(),
        }
    }
}

/// Time one pass of the reference kernel takes on the sandbox at its
/// usual speed, ns. A host at that speed has [`host_speed`] 1, and
/// there the calibrated `mpps` equals the raw one.
const REFERENCE_PASS_NS: f64 = 375_000.0;
/// Passes per probe: about 25 ms.
const PROBE_PASSES: usize = 64;

/// One pass of the reference kernel: four independent multiply-xor
/// lanes over a 4 KB buffer. Loads, stores and multiplies in parallel,
/// all in L1: the kind of code whose speed a busy sibling thread on the
/// host cuts most, and no line of it is the program's.
fn reference_pass(buf: &mut [u64; 512]) -> u64 {
    let (mut a, mut b, mut c, mut d) = (1u64, 2u64, 3u64, 4u64);
    for _ in 0..2000 {
        for lane in buf.chunks_exact_mut(4) {
            a = (a ^ lane[0]).wrapping_mul(0x100_0000_01b3);
            b = (b ^ lane[1]).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            c = (c ^ lane[2]).wrapping_mul(0xff51_afd7_ed55_8ccd);
            d = (d ^ lane[3]).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
            lane[0] = a.rotate_left(7);
            lane[1] = b.rotate_left(11);
            lane[2] = c.rotate_left(13);
            lane[3] = d.rotate_left(17);
        }
    }
    a ^ b ^ c ^ d
}

/// How fast the host runs compute-bound code right now, relative to
/// the sandbox's usual speed: the median of [`PROBE_PASSES`] timed
/// passes of the reference kernel, inverted. On the shared 2-core VM
/// this swings between 0.8 and 1.5 over seconds to minutes and the
/// workloads swing with it (`nat_hot` in proportion, `rack_2tor` by
/// three quarters of it), which is why `mpps` is divided by it.
pub fn host_speed() -> f64 {
    let mut buf = [1u64; 512];
    let mut pass_ns = [0.0; PROBE_PASSES];
    for slot in &mut pass_ns {
        let t = Instant::now();
        std::hint::black_box(reference_pass(std::hint::black_box(&mut buf)));
        *slot = t.elapsed().as_nanos() as f64;
    }
    REFERENCE_PASS_NS / crate::stats::median(&pass_ns).max(1.0)
}

/// Peak resident set (`VmHWM`) of this process, MB; 0 without /proc.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The calling thread's scheduler accounting
/// (`/proc/thread-self/schedstat`): time on a CPU and time runnable
/// but waiting for one. Zeros where the kernel does not keep it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchedStat {
    pub on_cpu_ns: u64,
    pub wait_ns: u64,
}

impl SchedStat {
    pub fn now() -> SchedStat {
        std::fs::read_to_string("/proc/thread-self/schedstat")
            .map(|s| SchedStat::parse(&s))
            .unwrap_or_default()
    }

    fn parse(text: &str) -> SchedStat {
        let mut fields = text.split_whitespace().map(|f| f.parse::<u64>().ok());
        SchedStat {
            on_cpu_ns: fields.next().flatten().unwrap_or(0),
            wait_ns: fields.next().flatten().unwrap_or(0),
        }
    }

    pub fn since(&self, earlier: &SchedStat) -> SchedStat {
        SchedStat {
            on_cpu_ns: self.on_cpu_ns.saturating_sub(earlier.on_cpu_ns),
            wait_ns: self.wait_ns.saturating_sub(earlier.wait_ns),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedstat_parses_the_kernel_line_and_tolerates_garbage() {
        let s = SchedStat::parse("123456 789 42\n");
        assert_eq!((s.on_cpu_ns, s.wait_ns), (123_456, 789));
        assert_eq!(SchedStat::parse(""), SchedStat::default());
        assert_eq!(SchedStat::parse("x y"), SchedStat::default());
        let later = SchedStat {
            on_cpu_ns: 200_000,
            wait_ns: 1_000,
        };
        assert_eq!(later.since(&s).wait_ns, 211);
    }

    #[test]
    fn host_speed_is_a_positive_ratio_near_one() {
        let speed = host_speed();
        assert!(speed > 0.05 && speed < 20.0, "host speed {speed}");
    }

    #[test]
    fn host_block_is_filled_in() {
        let h = HostInfo::capture();
        assert!(h.nproc >= 1);
        assert!(h.rustc.contains("rustc") || h.rustc == "unknown");
        assert!(peak_rss_mb() > 0.0);
    }
}
