//! Pins `simulate_layout` on devices whose rows span one and two bitset
//! words. Every `LayoutReport` field goes into the digest: the counts, the
//! clock and byte sums, the fragmentation statistics by their bits, and
//! every relocation event with its module name. A change to the free-space
//! kernels or the defrag search that moves a single placement, relocation
//! or fragmentation sample changes a digest.

use prfpga::layout::{LayoutReport, RelocationEvent};
use prfpga::prelude::*;

/// FNV-1a over little-endian words and length-prefixed strings.
struct Fnv(u64);

impl Fnv {
    fn bytes(self, bytes: &[u8]) -> Self {
        Fnv(bytes.iter().fold(self.0, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        }))
    }

    fn u64(self, v: u64) -> Self {
        self.bytes(&v.to_le_bytes())
    }

    fn str(self, s: &str) -> Self {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }

    fn event(self, e: &RelocationEvent) -> Self {
        let o = &e.organization;
        self.u64(u64::from(e.task))
            .str(&e.module)
            .str(o.family.name())
            .u64(u64::from(o.height))
            .u64(u64::from(o.clb_cols))
            .u64(u64::from(o.dsp_cols))
            .u64(u64::from(o.bram_cols))
            .u64(u64::from(e.from_col))
            .u64(u64::from(e.from_row))
            .u64(u64::from(e.to_col))
            .u64(u64::from(e.to_row))
            .u64(e.bytes)
            .u64(e.context_bytes)
            .u64(e.transfer_ns)
    }
}

fn digest(r: &LayoutReport) -> u64 {
    let h = [
        u64::from(r.admitted),
        u64::from(r.rejected_capacity),
        u64::from(r.rejected_fragmentation),
        u64::from(r.defrag_admissions),
        u64::from(r.proactive_defrags),
        u64::from(r.relocations),
        r.relocation_ns,
        r.relocated_bytes,
        r.context_bytes,
        u64::from(r.reconfigurations),
        r.reconfig_ns,
        r.icap_busy_ns,
        r.makespan_ns,
        r.total_wait_ns,
        r.total_exec_ns,
        r.peak_fragmentation.to_bits(),
        r.mean_fragmentation.to_bits(),
        r.relocation_log.len() as u64,
    ]
    .into_iter()
    .fold(Fnv(0xcbf2_9ce4_8422_2325), Fnv::u64);
    r.relocation_log.iter().fold(h, Fnv::event).0
}

/// The three policies the benchmark and the CLI exercise: the benchmark's
/// threshold-gated proactive depth-3 search, the single-step planner, and
/// no defragmentation.
fn policies() -> [(&'static str, LayoutConfig); 3] {
    [
        (
            "threshold-d3-proactive",
            LayoutConfig {
                policy: DefragPolicy::Threshold(2.0),
                depth: 3,
                proactive: true,
                ..LayoutConfig::default()
            },
        ),
        (
            "always-d0",
            LayoutConfig {
                policy: DefragPolicy::Always,
                ..LayoutConfig::default()
            },
        ),
        ("never", LayoutConfig::default()),
    ]
}

/// `(device, seed, module scale, mean interarrival ns, mean execution
/// ns)` of each 1 000-task heavy-tailed workload of 24 modules. Each one
/// relocates under both defragmenting policies; the first, second and
/// fifth also make proactive repairs.
const CASES: [(&str, u64, u32, u64, u64); 5] = [
    ("xc5vlx110t", 5, 400, 300_000, 400_000),
    ("xc5vlx110t", 6, 400, 300_000, 400_000),
    ("xc6vlx240t", 3, 800, 300_000, 400_000),
    ("xc6vlx240t", 2, 1500, 300_000, 400_000),
    ("xc7k325t", 3, 800, 1_000_000, 4_000_000),
];

/// Digests per case, in [`policies`] order, recorded before the
/// word-parallel rectangle kernel and the hoisted relocation starts
/// landed.
const PINS: [[u64; 3]; 5] = [
    [
        0x8ec5_175a_c0c0_b93b,
        0x2ec8_117c_91f1_b343,
        0x13fd_f05a_224e_f27d,
    ],
    [
        0x69f8_3742_3947_cc1e,
        0xae0c_9c45_63b2_552d,
        0x7889_a639_d0ed_f0d7,
    ],
    [
        0xda6b_498a_3515_1c16,
        0xc1df_2393_4d65_5e36,
        0xfd5a_eedd_a992_1a25,
    ],
    [
        0xb811_3b93_5fba_7a6d,
        0xa836_2e98_3fe4_d4a5,
        0x615c_d79b_c524_2b6c,
    ],
    [
        0x4bd4_3d51_dd87_84a8,
        0x1280_68ce_774f_c28e,
        0xb787_7829_1547_6e18,
    ],
];

#[test]
fn layout_reports_are_pinned_on_single_and_multi_word_devices() {
    const TASKS: u32 = 1_000;
    let mut moved = Vec::new();
    for ((name, seed, scale, interarrival, exec), pins) in CASES.into_iter().zip(PINS) {
        let device = fabric::device_by_name(name).unwrap();
        let workload = Workload::generate_heavy_tailed(
            seed,
            device.family(),
            TASKS,
            24,
            scale,
            interarrival,
            exec,
        );
        for ((policy, config), want) in policies().into_iter().zip(pins) {
            let r = simulate_layout(&device, &workload, &config);
            assert_eq!(
                r.admitted + r.rejected_capacity + r.rejected_fragmentation,
                TASKS
            );
            let got = digest(&r);
            if got != want {
                moved.push(format!(
                    "{name} seed {seed} {policy}: {got:#018x} (admitted {}, relocations {}, \
                     proactive {})",
                    r.admitted, r.relocations, r.proactive_defrags
                ));
            }
        }
    }
    assert!(moved.is_empty(), "digests moved: {moved:#?}");
}
