//! Vector-memory geometry and access legality (§3.4, figs. 7 and 8).
//!
//! The memory is 16 banks of vector-sized *slots*; four consecutive banks
//! form a *page* sharing one access descriptor; the k-th slots of all
//! banks form a *line*. Slots are enumerated linearly: slot 0 = first
//! slot of bank 0, slot 1 = first slot of bank 1, …, slot 16 = second
//! slot of bank 0 (for 16 banks).
//!
//! Per-cycle access rules enforced by [`check_access`]:
//! 1. each bank serves at most one read and one write;
//! 2. at most `max_vector_reads` reads and `max_vector_writes` writes in
//!    total;
//! 3. within a page, all slots accessed in one direction must lie in the
//!    same line (the descriptor addresses one line per page).
//!
//! [`VectorMemory`] is the memory the simulator executes against: every
//! vector operand with a slot is read from it at issue and every vector
//! result with a slot is written into it at write-back. Each slot holds
//! the last datum written there, so a read expecting another datum is a
//! stale read.

use crate::spec::ArchSpec;
use eit_ir::sem::Value;
use eit_ir::NodeId;
use std::fmt;

/// Geometry helpers over the linear slot enumeration.
#[derive(Clone, Copy, Debug)]
pub struct Geometry {
    pub n_banks: u32,
    pub page_size: u32,
}

impl Geometry {
    pub fn of(spec: &ArchSpec) -> Self {
        Geometry {
            n_banks: spec.n_banks,
            page_size: spec.page_size,
        }
    }

    #[inline]
    pub fn bank(&self, slot: u32) -> u32 {
        slot % self.n_banks
    }

    #[inline]
    pub fn line(&self, slot: u32) -> u32 {
        slot / self.n_banks
    }

    #[inline]
    pub fn page(&self, slot: u32) -> u32 {
        self.bank(slot) / self.page_size
    }
}

/// A violated access rule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AccessViolation {
    BankReadConflict { bank: u32, slots: Vec<u32> },
    BankWriteConflict { bank: u32, slots: Vec<u32> },
    TooManyReads { count: usize, max: u32 },
    TooManyWrites { count: usize, max: u32 },
    PageLineConflict { page: u32, lines: Vec<u32> },
}

impl fmt::Display for AccessViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessViolation::BankReadConflict { bank, slots } => {
                write!(f, "bank {bank} read more than once: slots {slots:?}")
            }
            AccessViolation::BankWriteConflict { bank, slots } => {
                write!(f, "bank {bank} written more than once: slots {slots:?}")
            }
            AccessViolation::TooManyReads { count, max } => {
                write!(f, "{count} reads exceed the {max}-vector read budget")
            }
            AccessViolation::TooManyWrites { count, max } => {
                write!(f, "{count} writes exceed the {max}-vector write budget")
            }
            AccessViolation::PageLineConflict { page, lines } => {
                write!(f, "page {page} accessed on multiple lines {lines:?}")
            }
        }
    }
}

fn check_direction(geo: &Geometry, slots: &[u32], write: bool, out: &mut Vec<AccessViolation>) {
    // Rule 1: one access per bank per direction.
    let mut by_bank: Vec<Vec<u32>> = vec![Vec::new(); geo.n_banks as usize];
    for &s in slots {
        by_bank[geo.bank(s) as usize].push(s);
    }
    for (bank, ss) in by_bank.iter().enumerate() {
        if ss.len() > 1 {
            out.push(if write {
                AccessViolation::BankWriteConflict {
                    bank: bank as u32,
                    slots: ss.clone(),
                }
            } else {
                AccessViolation::BankReadConflict {
                    bank: bank as u32,
                    slots: ss.clone(),
                }
            });
        }
    }
    // Rule 3: one line per page per direction.
    let n_pages = geo.n_banks / geo.page_size;
    let mut by_page: Vec<Vec<u32>> = vec![Vec::new(); n_pages as usize];
    for &s in slots {
        by_page[geo.page(s) as usize].push(geo.line(s));
    }
    for (page, mut lines) in by_page.into_iter().enumerate() {
        lines.sort_unstable();
        lines.dedup();
        if lines.len() > 1 {
            out.push(AccessViolation::PageLineConflict {
                page: page as u32,
                lines,
            });
        }
    }
}

/// Check one cycle's worth of simultaneous accesses.
pub fn check_access(spec: &ArchSpec, reads: &[u32], writes: &[u32]) -> Vec<AccessViolation> {
    let geo = Geometry::of(spec);
    let mut out = Vec::new();
    if reads.len() > spec.max_vector_reads as usize {
        out.push(AccessViolation::TooManyReads {
            count: reads.len(),
            max: spec.max_vector_reads,
        });
    }
    if writes.len() > spec.max_vector_writes as usize {
        out.push(AccessViolation::TooManyWrites {
            count: writes.len(),
            max: spec.max_vector_writes,
        });
    }
    check_direction(&geo, reads, false, &mut out);
    check_direction(&geo, writes, true, &mut out);
    out
}

/// Can the four given slots (a matrix) be accessed in a single cycle?
/// This is exactly the fig. 8 question.
pub fn matrix_accessible_in_one_cycle(spec: &ArchSpec, slots: &[u32; 4]) -> bool {
    check_access(spec, slots, &[]).is_empty()
}

/// Slot-addressed storage with last-writer-wins semantics, tracking which
/// datum currently occupies each slot so stale reads are detectable.
pub struct VectorMemory {
    slots: Vec<Option<(NodeId, Value)>>,
}

impl VectorMemory {
    pub fn new(n_slots: u32) -> Self {
        VectorMemory {
            slots: vec![None; n_slots as usize],
        }
    }

    /// Store `value` of datum `owner` into `slot` (overwrites).
    pub fn write(&mut self, slot: u32, owner: NodeId, value: Value) {
        self.slots[slot as usize] = Some((owner, value));
    }

    /// Read `slot` expecting datum `owner`; `Err` carries the actual
    /// occupant (or `None` if the slot was never written).
    pub fn read(&self, slot: u32, owner: NodeId) -> Result<Value, Option<NodeId>> {
        match &self.slots[slot as usize] {
            Some((o, v)) if *o == owner => Ok(*v),
            Some((o, _)) => Err(Some(*o)),
            None => Err(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eit_ir::Cplx;

    fn spec3() -> ArchSpec {
        // fig. 8: 16 banks, 4-bank pages, 3 slots per bank.
        let mut s = ArchSpec::eit();
        s.slots_per_bank = 3;
        s
    }

    #[test]
    fn geometry_enumeration() {
        let g = Geometry::of(&ArchSpec::eit());
        assert_eq!(g.bank(0), 0);
        assert_eq!(g.bank(1), 1);
        assert_eq!(g.bank(16), 0);
        assert_eq!(g.line(0), 0);
        assert_eq!(g.line(17), 1);
        assert_eq!(g.page(0), 0);
        assert_eq!(g.page(4), 1);
        assert_eq!(g.page(15), 3);
        assert_eq!(g.page(20), 1);
    }

    /// fig. 8 matrix A: two pairs of vectors share banks → not accessible.
    #[test]
    fn fig8_matrix_a_rejected() {
        let s = spec3();
        // A1..A4 in banks 0,1,0,1 (A1,A3 same bank; A2,A4 same bank).
        let slots = [0, 1, 16, 17];
        assert!(!matrix_accessible_in_one_cycle(&s, &slots));
        let v = check_access(&s, &slots, &[]);
        assert!(v
            .iter()
            .any(|x| matches!(x, AccessViolation::BankReadConflict { .. })
                || matches!(x, AccessViolation::PageLineConflict { .. })));
    }

    /// fig. 8 matrix B: same page but different lines → not accessible.
    #[test]
    fn fig8_matrix_b_rejected() {
        let s = spec3();
        // B1,B2 in page 2 line 0 (banks 8,9); B3 page 3 line 0 (bank 12);
        // B4 page 3 line 1 (bank 13+16 = slot 29): page 3 sees lines {0,1}.
        let slots = [8, 9, 12, 29];
        assert!(!matrix_accessible_in_one_cycle(&s, &slots));
        let v = check_access(&s, &slots, &[]);
        assert!(v
            .iter()
            .any(|x| matches!(x, AccessViolation::PageLineConflict { page: 3, .. })));
    }

    /// fig. 8 matrix C: distinct banks, one line per page → accessible.
    #[test]
    fn fig8_matrix_c_accepted() {
        let s = spec3();
        // C spread over banks 2,3 (page 0, line 2) and banks 6,7
        // (page 1, line 1): slots 2+32, 3+32, 6+16, 7+16.
        let slots = [34, 35, 22, 23];
        assert!(matrix_accessible_in_one_cycle(&s, &slots));
    }

    #[test]
    fn read_budget_enforced() {
        let s = ArchSpec::eit();
        // 9 reads from 9 distinct banks, same line: over the 8-read budget.
        let reads: Vec<u32> = (0..9).collect();
        let v = check_access(&s, &reads, &[]);
        assert!(v
            .iter()
            .any(|x| matches!(x, AccessViolation::TooManyReads { count: 9, .. })));
    }

    #[test]
    fn write_budget_enforced() {
        let s = ArchSpec::eit();
        let writes: Vec<u32> = (0..5).collect();
        let v = check_access(&s, &[], &writes);
        assert!(v
            .iter()
            .any(|x| matches!(x, AccessViolation::TooManyWrites { count: 5, .. })));
    }

    #[test]
    fn reads_and_writes_use_separate_ports() {
        let s = ArchSpec::eit();
        // Same bank read and written in one cycle: legal (1R + 1W ports).
        assert!(check_access(&s, &[0], &[16]).is_empty());
    }

    #[test]
    fn two_matrices_readable_per_cycle() {
        let s = ArchSpec::eit();
        // 8 reads across 8 distinct banks, lines consistent per page.
        let reads: Vec<u32> = (0..8).collect(); // banks 0..8, line 0
        assert!(check_access(&s, &reads, &[]).is_empty());
    }

    #[test]
    fn memory_detects_stale_read() {
        let mut m = VectorMemory::new(4);
        let d1 = NodeId(1);
        let d2 = NodeId(2);
        let v = Value::S(Cplx::ONE);
        m.write(2, d1, v);
        assert_eq!(m.read(2, d1), Ok(v));
        m.write(2, d2, v);
        assert_eq!(m.read(2, d1), Err(Some(d2)));
        assert_eq!(m.read(0, d1), Err(None));
    }
}
