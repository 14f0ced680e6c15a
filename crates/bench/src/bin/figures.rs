//! Executable reproductions of the paper's behavioural figures.
//!
//! - **Fig. 3** — the IR of Listing 1 (MATMUL): node/edge census and the
//!   XML dump the DSL emits;
//! - **Fig. 4/5** — `m_squsum` as one matrix operation vs the equivalent
//!   four-vector + merge expansion (node-count comparison);
//! - **Fig. 6** — the pipeline-merging pass on its two canonical
//!   patterns;
//! - **Fig. 8** — memory-access legality of the three example matrices
//!   (A: bank conflict, B: page/line conflict, C: accessible).
//!
//! Run: `cargo run --release -p eit-bench --bin figures`

use eit_arch::{matrix_accessible_in_one_cycle, ArchSpec};
use eit_bench::{harness_args, prepared, rule};
use eit_dsl::Ctx;
use eit_ir::{merge_pipeline_ops, Category, CoreOp, DataKind, Opcode, PostOp, PreOp};

fn fig3() {
    println!("Fig. 3 — IR of Listing 1 (MATMUL)");
    let p = prepared("matmul");
    let g = &p.kernel.graph;
    println!(
        "  |V| = {}, |E| = {}; {} v_dotP ops, {} merges, {} scalar data, {} vector data",
        g.len(),
        g.edge_count(),
        g.count(Category::VectorOp),
        g.count(Category::Merge),
        g.count(Category::ScalarData),
        g.count(Category::VectorData),
    );
    println!("  bipartite: {}", g.validate().is_ok());
    let xml = eit_ir::to_xml(g);
    println!("  XML dump: {} lines (first 3):", xml.lines().count());
    for line in xml.lines().take(3) {
        println!("    {line}");
    }
}

fn fig45() {
    println!("Fig. 4/5 — matrix op vs four-vector expansion of A.m_squsum");
    // Matrix version: one matrix_op node.
    let ctx = Ctx::new("fig4");
    let a = ctx.matrix([[1.0; 4]; 4]);
    let _ = a.m_squsum();
    let gm = ctx.finish();
    // Vector version: four v_squsum + merge (via index-free scalars).
    let ctx = Ctx::new("fig5");
    let rows = [
        ctx.vector([1.0; 4]),
        ctx.vector([1.0; 4]),
        ctx.vector([1.0; 4]),
        ctx.vector([1.0; 4]),
    ];
    let sums: Vec<_> = rows.iter().map(|r| r.v_squsum()).collect();
    let _ = ctx.merge([&sums[0], &sums[1], &sums[2], &sums[3]]);
    let gv = ctx.finish();
    println!(
        "  matrix form: |V| = {} ({} matrix op); vector form: |V| = {} ({} vector ops + {} merge)",
        gm.len(),
        gm.count(Category::MatrixOp),
        gv.len(),
        gv.count(Category::VectorOp),
        gv.count(Category::Merge),
    );
    println!(
        "  → the matrix version removes the merge node and {} nodes overall",
        gv.len() - gm.len()
    );
}

fn fig6() {
    println!("Fig. 6 — pipeline merging");
    // Left: pre-processing (hermitian) into a core op.
    let mut g = eit_ir::Graph::new("left");
    let a = g.add_data(DataKind::Vector, "a");
    let b = g.add_data(DataKind::Vector, "b");
    let (_, ah) = g.add_op_with_output(
        Opcode::Vector {
            pre: Some((PreOp::Hermitian, 0)),
            core: CoreOp::Pass,
            post: None,
        },
        &[a],
        DataKind::Vector,
        "herm",
    );
    g.add_op_with_output(
        Opcode::vector(CoreOp::Mul),
        &[ah, b],
        DataKind::Vector,
        "mul",
    );
    let before = g.len();
    let st = merge_pipeline_ops(&mut g);
    println!(
        "  pre-merge:  {} → {} nodes ({} fold)",
        before,
        g.len(),
        st.pre_merges
    );
    // Right: matrix op with post-processing on its vector output.
    let mut g = eit_ir::Graph::new("right");
    let ins: Vec<_> = (0..4)
        .map(|i| g.add_data(DataKind::Vector, &format!("r{i}")))
        .collect();
    let (_, v) = g.add_op_with_output(Opcode::matrix(CoreOp::SquSum), &ins, DataKind::Vector, "ss");
    g.add_op_with_output(
        Opcode::Vector {
            pre: None,
            core: CoreOp::Pass,
            post: Some(PostOp::Sort),
        },
        &[v],
        DataKind::Vector,
        "sort",
    );
    let before = g.len();
    let st = merge_pipeline_ops(&mut g);
    println!(
        "  post-merge: {} → {} nodes ({} fold)",
        before,
        g.len(),
        st.post_merges
    );
}

fn fig8() {
    println!("Fig. 8 — memory access legality (16 banks, 4-bank pages, 3 slots/bank)");
    let mut spec = ArchSpec::eit();
    spec.slots_per_bank = 3;
    let cases: [(&str, [u32; 4], bool); 3] = [
        ("A (two bank conflicts)", [0, 1, 16, 17], false),
        ("B (page 3 on two lines)", [8, 9, 12, 29], false),
        ("C (conflict-free)", [34, 35, 22, 23], true),
    ];
    for (label, slots, expect) in cases {
        let ok = matrix_accessible_in_one_cycle(&spec, &slots);
        assert_eq!(ok, expect, "fig. 8 case {label}");
        println!(
            "  matrix {label}: slots {slots:?} → {}",
            if ok {
                "accessible in 1 cycle"
            } else {
                "NOT accessible"
            }
        );
    }
}

fn main() {
    harness_args(&[]);
    rule(78);
    fig3();
    rule(78);
    fig45();
    rule(78);
    fig6();
    rule(78);
    fig8();
    rule(78);
}
