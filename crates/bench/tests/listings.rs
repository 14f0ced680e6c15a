//! The refactor contract: the listings `eitc` prints for the six table
//! kernels, straight-line, under three modulo modes, as Gantt and VCD
//! renderings and under four-way overlapped execution, are pinned byte
//! for byte. A change to propagation strength, propagator order, search
//! heuristics or rendering moves a digest; a pure refactor or speed-up
//! must not.

use eit_cp::fnv1a;
use std::process::Command;

/// The `eitc` flags of each pinned mode, in the column order of
/// [`PINNED`].
const MODES: [&[&str]; 7] = [
    &[],
    &["--modulo"],
    &["--modulo", "--backend", "sat"],
    &["--modulo", "incl"],
    &["--emit", "gantt"],
    &["--emit", "vcd"],
    &["--overlap", "4"],
];

/// FNV-1a 64 of `eitc KERNEL MODE...` stdout, per kernel and mode.
const PINNED: [(&str, [u64; 7]); 6] = [
    (
        "qrd",
        [
            0xca9f_cf0a_0109_9d1a,
            0xd52e_d716_5159_d555,
            0x0afa_5c5d_414c_8f26,
            0xa464_4daf_9f78_d685,
            0x7bf6_180f_958e_3050,
            0xa351_3be7_9459_0807,
            0xad82_e12f_6bd2_7c7c,
        ],
    ),
    (
        "arf",
        [
            0xcc99_4587_3b88_a646,
            0x294a_9c3c_a022_2f7f,
            0x54f4_8787_fa56_0190,
            0xc50b_fcc8_c5ef_3ff8,
            0x3714_786b_698a_5333,
            0x2d50_2e15_b6d5_514c,
            0x5729_3e83_6c66_2780,
        ],
    ),
    (
        "matmul",
        [
            0xeda4_1b34_e6fe_80b6,
            0xf568_e419_fd87_7acc,
            0x1111_3b39_881f_5964,
            0xafa3_0d79_c057_cfb1,
            0xed0c_9716_037f_8424,
            0x861c_4762_4eb5_faa7,
            0x74eb_c59b_c352_77da,
        ],
    ),
    (
        "fir",
        [
            0x5d2b_0557_7310_54a8,
            0x5725_df3a_b842_98a6,
            0x8f60_3bf2_4342_9f40,
            0x5b50_0326_c3b4_224a,
            0x519e_1db4_7a80_97e6,
            0xbfdb_80c5_53db_a07f,
            0x41ff_750e_9cef_c498,
        ],
    ),
    (
        "detector",
        [
            0x860f_1e86_8868_b15a,
            0x73ba_2369_d50a_d9b1,
            0x4700_b93c_0507_db2d,
            0xb7ee_beeb_afea_6ae0,
            0x9d90_ab98_b707_915c,
            0xefaa_e3b1_ddeb_e937,
            0x60e1_62f1_e1f5_fccb,
        ],
    ),
    (
        "blockmm",
        [
            0xa397_4dc1_e74c_ea0d,
            0x2011_4221_f50c_d247,
            0x5d85_b72b_890b_5927,
            0x3024_93f6_1a6d_1591,
            0x82d1_ff23_74c2_9b9d,
            0x1345_3edc_df27_b9d4,
            0xdb68_c1b0_cc93_cb3e,
        ],
    ),
];

#[test]
fn table_kernel_listings_are_pinned() {
    let mut moved = Vec::new();
    for (kernel, digests) in PINNED {
        for (mode, want) in MODES.iter().zip(digests) {
            let out = Command::new(env!("CARGO_BIN_EXE_eitc"))
                .arg(kernel)
                .args(*mode)
                .output()
                .unwrap();
            let run = format!("eitc {kernel} {}", mode.join(" "));
            assert!(
                out.status.success(),
                "{run}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let got = fnv1a(&out.stdout);
            if got != want {
                moved.push(format!("{run}: {got:#018x}, pinned {want:#018x}"));
            }
        }
    }
    assert!(moved.is_empty(), "listings moved:\n{}", moved.join("\n"));
}
