//! The refactor contract: the listings `eitc` prints for the six table
//! kernels, straight-line and under three modulo modes, are pinned byte
//! for byte. A change to propagation strength, propagator order, search
//! heuristics or rendering moves a digest; a pure refactor or speed-up
//! must not.

use eit_cp::fnv1a;
use std::process::Command;

/// The `eitc` flags of each pinned mode, in the column order of
/// [`PINNED`].
const MODES: [&[&str]; 4] = [
    &[],
    &["--modulo"],
    &["--modulo", "--backend", "sat"],
    &["--modulo", "incl"],
];

/// FNV-1a 64 of `eitc KERNEL MODE...` stdout, per kernel and mode.
const PINNED: [(&str, [u64; 4]); 6] = [
    (
        "qrd",
        [
            0xca9f_cf0a_0109_9d1a,
            0xd52e_d716_5159_d555,
            0x5f8d_75b5_d9ac_0cfb,
            0xa464_4daf_9f78_d685,
        ],
    ),
    (
        "arf",
        [
            0xcc99_4587_3b88_a646,
            0x294a_9c3c_a022_2f7f,
            0x6e1a_2842_490f_caab,
            0xc50b_fcc8_c5ef_3ff8,
        ],
    ),
    (
        "matmul",
        [
            0xeda4_1b34_e6fe_80b6,
            0xf568_e419_fd87_7acc,
            0x2cc6_0781_afef_17eb,
            0xafa3_0d79_c057_cfb1,
        ],
    ),
    (
        "fir",
        [
            0x5d2b_0557_7310_54a8,
            0x5725_df3a_b842_98a6,
            0xc2aa_31c4_8c1f_a944,
            0x5b50_0326_c3b4_224a,
        ],
    ),
    (
        "detector",
        [
            0x860f_1e86_8868_b15a,
            0x73ba_2369_d50a_d9b1,
            0x6b6d_ab37_c0d2_6858,
            0xb7ee_beeb_afea_6ae0,
        ],
    ),
    (
        "blockmm",
        [
            0xa397_4dc1_e74c_ea0d,
            0x2011_4221_f50c_d247,
            0x7718_566e_3020_9d29,
            0x3024_93f6_1a6d_1591,
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
