//! Decoded instruction representation and operand introspection.

use std::fmt;

use crate::ops::{AluOp, CmpOp, FlagOp, FlagReduceOp, ReduceOp};
use crate::reg::{Mask, PFlag, PReg, SFlag, SReg};

/// The three pipeline classes of Section 4.1 of the paper: scalar
/// instructions execute within the control unit; parallel instructions
/// execute on the PE array and use the broadcast network; reduction
/// instructions use both the broadcast and the reduction network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstrClass {
    /// Executes in the control unit's scalar datapath.
    Scalar,
    /// Executes on the PE array; traverses the broadcast network.
    Parallel,
    /// Executes on the PE array; traverses broadcast *and* reduction
    /// networks.
    Reduction,
}

impl InstrClass {
    /// Every class, in [`InstrClass::index`] order.
    pub const ALL: [InstrClass; 3] =
        [InstrClass::Scalar, InstrClass::Parallel, InstrClass::Reduction];

    /// Dense index (0, 1, 2) for per-class counter arrays.
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Stable lower-case name, as traces and reports spell it.
    pub const fn label(self) -> &'static str {
        match self {
            InstrClass::Scalar => "scalar",
            InstrClass::Parallel => "parallel",
            InstrClass::Reduction => "reduction",
        }
    }
}

impl fmt::Display for InstrClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The four architectural register files (per thread).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegClass {
    /// Scalar general-purpose register.
    SGpr,
    /// Scalar flag register.
    SFlag,
    /// Parallel general-purpose register (replicated per PE).
    PGpr,
    /// Parallel flag register (replicated per PE).
    PFlag,
}

/// A register operand: file plus index. Used by the scoreboard for hazard
/// detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Operand {
    /// Which register file.
    pub class: RegClass,
    /// Index within the file.
    pub index: u8,
}

impl Operand {
    /// Scalar GPR operand.
    pub fn s(r: SReg) -> Operand {
        Operand { class: RegClass::SGpr, index: r.raw() }
    }
    /// Scalar flag operand.
    pub fn sf(f: SFlag) -> Operand {
        Operand { class: RegClass::SFlag, index: f.raw() }
    }
    /// Parallel GPR operand.
    pub fn p(r: PReg) -> Operand {
        Operand { class: RegClass::PGpr, index: r.raw() }
    }
    /// Parallel flag operand.
    pub fn pf(f: PFlag) -> Operand {
        Operand { class: RegClass::PFlag, index: f.raw() }
    }
    /// True if this operand is the hardwired zero register of a GPR file
    /// (never a real dependency).
    pub fn is_zero_gpr(self) -> bool {
        matches!(self.class, RegClass::SGpr | RegClass::PGpr) && self.index == 0
    }
}

/// A fixed-capacity operand list, returned by [`Instr::reads`] and
/// [`Instr::writes`]. The scheduler interrogates operands on every issue
/// *attempt* (including stalled ones), so the list lives on the stack —
/// no instruction names more than four register operands (two sources, a
/// store-data/base pair, plus the activity mask flag).
///
/// It dereferences to `&[Operand]` and compares equal to a
/// `Vec<Operand>` with the same contents, so call sites read like the
/// `Vec`-returning API it replaces.
#[derive(Debug, Clone, Copy)]
pub struct OperandList {
    ops: [Operand; 4],
    len: u8,
}

impl OperandList {
    const fn new() -> OperandList {
        OperandList { ops: [Operand { class: RegClass::SGpr, index: 0 }; 4], len: 0 }
    }

    /// Append an operand, silently dropping hardwired zero GPRs (they are
    /// never a real dependency).
    fn push(&mut self, op: Operand) {
        if op.is_zero_gpr() {
            return;
        }
        self.ops[self.len as usize] = op;
        self.len += 1;
    }

    /// The operands as a slice.
    pub fn as_slice(&self) -> &[Operand] {
        &self.ops[..self.len as usize]
    }
}

impl std::ops::Deref for OperandList {
    type Target = [Operand];
    fn deref(&self) -> &[Operand] {
        self.as_slice()
    }
}

impl IntoIterator for OperandList {
    type Item = Operand;
    type IntoIter = std::iter::Take<std::array::IntoIter<Operand, 4>>;
    fn into_iter(self) -> Self::IntoIter {
        self.ops.into_iter().take(self.len as usize)
    }
}

impl<'a> IntoIterator for &'a OperandList {
    type Item = &'a Operand;
    type IntoIter = std::slice::Iter<'a, Operand>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl PartialEq for OperandList {
    fn eq(&self, other: &OperandList) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for OperandList {}

impl PartialEq<Vec<Operand>> for OperandList {
    fn eq(&self, other: &Vec<Operand>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<OperandList> for Vec<Operand> {
    fn eq(&self, other: &OperandList) -> bool {
        self.as_slice() == other.as_slice()
    }
}

/// A fully decoded MTASC instruction.
///
/// Immediates are stored sign-extended. Branch offsets are in instruction
/// words, relative to the *next* instruction. Jump targets are absolute
/// instruction addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // operand fields are described in each variant's doc
pub enum Instr {
    // ------------------------------------------------------ scalar
    /// No operation.
    Nop,
    /// Stop the whole machine.
    Halt,
    /// Scalar ALU, register-register: `rd = ra op rb`.
    SAlu { op: AluOp, rd: SReg, ra: SReg, rb: SReg },
    /// Scalar ALU, register-immediate: `rd = ra op imm`.
    SAluImm { op: AluOp, rd: SReg, ra: SReg, imm: i16 },
    /// Scalar comparison: `fd = ra cmp rb`.
    SCmp { op: CmpOp, fd: SFlag, ra: SReg, rb: SReg },
    /// Scalar comparison with immediate: `fd = ra cmp imm`.
    SCmpImm { op: CmpOp, fd: SFlag, ra: SReg, imm: i16 },
    /// Scalar flag logic: `fd = fa op fb`.
    SFlagOp { op: FlagOp, fd: SFlag, fa: SFlag, fb: SFlag },
    /// Load word from scalar memory: `rd = mem[ra + off]`.
    Lw { rd: SReg, base: SReg, off: i16 },
    /// Store word to scalar memory: `mem[ra + off] = rs`.
    Sw { rs: SReg, base: SReg, off: i16 },
    /// Load immediate (sign-extended): `rd = imm`.
    Li { rd: SReg, imm: i16 },
    /// Load upper immediate: `rd = imm << (width/2)` — pairs with `ori` to
    /// build full-width constants on 32-bit machines.
    Lui { rd: SReg, imm: u16 },
    /// Branch if flag true: `if fa { pc += 1 + off }`.
    Bt { fa: SFlag, off: i16 },
    /// Branch if flag false.
    Bf { fa: SFlag, off: i16 },
    /// Unconditional jump to absolute instruction address.
    J { target: u32 },
    /// Jump and link: `rd = pc + 1; pc = target`.
    Jal { rd: SReg, target: u32 },
    /// Jump to register.
    Jr { ra: SReg },

    // ------------------------------------------------------ threads
    /// Allocate a hardware thread starting at the address in `ra`;
    /// `rd` receives the new thread id, or all-ones if none is free.
    TSpawn { rd: SReg, ra: SReg },
    /// Release the executing hardware thread.
    TExit,
    /// Block until the thread whose id is in `ra` has exited.
    TJoin { ra: SReg },
    /// Inter-thread read: `rd = scalar register `src` of thread `ta``.
    TGet { rd: SReg, ta: SReg, src: SReg },
    /// Inter-thread write: `scalar register `dst` of thread `ta` = rb`.
    TPut { ta: SReg, dst: SReg, rb: SReg },
    /// Read the executing thread's id.
    TId { rd: SReg },

    // ------------------------------------------------------ parallel
    /// Parallel ALU, register-register: `pd = pa op pb` in active PEs.
    PAlu { op: AluOp, pd: PReg, pa: PReg, pb: PReg, mask: Mask },
    /// Parallel ALU with broadcast scalar operand: `pd = pa op broadcast(sb)`
    /// ("most parallel instructions allow one of the operands to be a scalar
    /// value that is broadcast to the PE array").
    PAluS { op: AluOp, pd: PReg, pa: PReg, sb: SReg, mask: Mask },
    /// Parallel ALU with immediate: `pd = pa op imm` (imm8, sign-extended).
    PAluImm { op: AluOp, pd: PReg, pa: PReg, imm: i8, mask: Mask },
    /// Parallel comparison: `fd = pa cmp pb` — the associative *search*.
    PCmp { op: CmpOp, fd: PFlag, pa: PReg, pb: PReg, mask: Mask },
    /// Parallel comparison against a broadcast scalar.
    PCmpS { op: CmpOp, fd: PFlag, pa: PReg, sb: SReg, mask: Mask },
    /// Parallel comparison against an immediate (imm8, sign-extended).
    PCmpImm { op: CmpOp, fd: PFlag, pa: PReg, imm: i8, mask: Mask },
    /// Parallel flag logic.
    PFlagOp { op: FlagOp, fd: PFlag, fa: PFlag, fb: PFlag, mask: Mask },
    /// Parallel load from PE local memory: `pd = lmem[pa + off]`.
    Plw { pd: PReg, base: PReg, off: i8, mask: Mask },
    /// Parallel store to PE local memory: `lmem[pa + off] = ps`.
    Psw { ps: PReg, base: PReg, off: i8, mask: Mask },
    /// Write each PE's index into `pd` (truncated to the machine width).
    Pidx { pd: PReg, mask: Mask },
    /// Broadcast a scalar register into a parallel register: `pd = sa`.
    PMovS { pd: PReg, sa: SReg, mask: Mask },
    /// Inter-PE shift: `pd[i] = pa[i - dist]` (zero shifted in at the
    /// array boundary). The STARAN-heritage reconfigurable PE
    /// interconnection network of the lineage's embedded-applications
    /// processor \[7\]; an extension over the paper's base prototype.
    PShift { pd: PReg, pa: PReg, dist: i8, mask: Mask },

    // ------------------------------------------------------ reduction
    /// Reduce a parallel register into a scalar: `sd = reduce(op, pa)` over
    /// active PEs (bitwise AND/OR, signed/unsigned max/min, saturating sum).
    Reduce { op: ReduceOp, sd: SReg, pa: PReg, mask: Mask },
    /// Exact responder count: `sd = |{active PEs with fa set}|`.
    RCount { sd: SReg, fa: PFlag, mask: Mask },
    /// Flag reduction (responder detection): `fd = any/all(fa)`.
    RFlag { op: FlagReduceOp, fd: SFlag, fa: PFlag, mask: Mask },
    /// Multiple response resolver: `fd = first responder of fa` — a
    /// *parallel* result with at most one bit set (pipelined parallel
    /// prefix network).
    PFirst { fd: PFlag, fa: PFlag, mask: Mask },
    /// Pick-one-and-read: `sd = pa` at the first responder of `fa`
    /// (zero if there are no responders).
    RGet { sd: SReg, pa: PReg, fa: PFlag, mask: Mask },
}

impl Instr {
    /// Pipeline class of this instruction (Section 4.1).
    pub fn class(&self) -> InstrClass {
        use Instr::*;
        match self {
            Nop
            | Halt
            | SAlu { .. }
            | SAluImm { .. }
            | SCmp { .. }
            | SCmpImm { .. }
            | SFlagOp { .. }
            | Lw { .. }
            | Sw { .. }
            | Li { .. }
            | Lui { .. }
            | Bt { .. }
            | Bf { .. }
            | J { .. }
            | Jal { .. }
            | Jr { .. }
            | TSpawn { .. }
            | TExit
            | TJoin { .. }
            | TGet { .. }
            | TPut { .. }
            | TId { .. } => InstrClass::Scalar,
            PAlu { .. }
            | PAluS { .. }
            | PAluImm { .. }
            | PCmp { .. }
            | PCmpS { .. }
            | PCmpImm { .. }
            | PFlagOp { .. }
            | Plw { .. }
            | Psw { .. }
            | Pidx { .. }
            | PMovS { .. }
            | PShift { .. } => InstrClass::Parallel,
            Reduce { .. } | RCount { .. } | RFlag { .. } | PFirst { .. } | RGet { .. } => {
                InstrClass::Reduction
            }
        }
    }

    /// True for control-transfer instructions (the thread's next fetch
    /// depends on this instruction's outcome).
    pub fn is_branch(&self) -> bool {
        matches!(
            self,
            Instr::Bt { .. }
                | Instr::Bf { .. }
                | Instr::J { .. }
                | Instr::Jal { .. }
                | Instr::Jr { .. }
        )
    }

    /// True if this instruction reads or writes PE local memory.
    pub fn touches_local_memory(&self) -> bool {
        matches!(self, Instr::Plw { .. } | Instr::Psw { .. })
    }

    /// True if this instruction may join a *fusible parallel basic
    /// block* — a straight-line run the block-fusion engine executes
    /// tile-by-tile. The predicate admits exactly the lane-local
    /// PARALLEL-class forms: each active PE's result depends only on that
    /// PE's own registers, flag bits, and local-memory column. Everything
    /// that couples lanes or touches scalar state ends a block: scalar
    /// and control-flow instructions, thread management, reductions (the
    /// reduction network), scalar-operand broadcasts (`PAluS`, `PCmpS`,
    /// `PMovS` read the scalar register file at B1), and the inter-PE
    /// shift network.
    pub fn is_fusible(&self) -> bool {
        matches!(
            self,
            Instr::PAlu { .. }
                | Instr::PAluImm { .. }
                | Instr::PCmp { .. }
                | Instr::PCmpImm { .. }
                | Instr::PFlagOp { .. }
                | Instr::Plw { .. }
                | Instr::Psw { .. }
                | Instr::Pidx { .. }
        )
    }

    /// The mask field, for parallel/reduction instructions.
    pub fn mask(&self) -> Option<Mask> {
        use Instr::*;
        match self {
            PAlu { mask, .. }
            | PAluS { mask, .. }
            | PAluImm { mask, .. }
            | PCmp { mask, .. }
            | PCmpS { mask, .. }
            | PCmpImm { mask, .. }
            | PFlagOp { mask, .. }
            | Plw { mask, .. }
            | Psw { mask, .. }
            | Pidx { mask, .. }
            | PMovS { mask, .. }
            | PShift { mask, .. }
            | Reduce { mask, .. }
            | RCount { mask, .. }
            | RFlag { mask, .. }
            | PFirst { mask, .. }
            | RGet { mask, .. } => Some(*mask),
            _ => None,
        }
    }

    /// Registers read by this instruction — the canonical *use* set,
    /// including the activity-mask flag. Hardwired zero registers are
    /// filtered out (they are never a dependency).
    ///
    /// This is the single source of truth for operand extraction: the
    /// machine's scheduler/scoreboard and the `asc-verify` static
    /// analyzer both consume it, so a hazard the simulator would stall on
    /// and a dependency the linter reasons about can never disagree.
    /// [`Instr::reads`] is the same list under its historical name.
    pub fn uses(&self) -> OperandList {
        use Instr::*;
        let mut v = OperandList::new();
        match *self {
            Nop | Halt | Li { .. } | Lui { .. } | J { .. } | Jal { .. } | TExit | TId { .. } => {}
            SAlu { ra, rb, .. } => {
                v.push(Operand::s(ra));
                v.push(Operand::s(rb));
            }
            SAluImm { ra, .. } => v.push(Operand::s(ra)),
            SCmp { ra, rb, .. } => {
                v.push(Operand::s(ra));
                v.push(Operand::s(rb));
            }
            SCmpImm { ra, .. } => v.push(Operand::s(ra)),
            SFlagOp { op, fa, fb, .. } => {
                if op.arity() >= 1 {
                    v.push(Operand::sf(fa));
                }
                if op.arity() >= 2 {
                    v.push(Operand::sf(fb));
                }
            }
            Lw { base, .. } => v.push(Operand::s(base)),
            Sw { rs, base, .. } => {
                v.push(Operand::s(rs));
                v.push(Operand::s(base));
            }
            Bt { fa, .. } | Bf { fa, .. } => v.push(Operand::sf(fa)),
            Jr { ra } | TJoin { ra } | TSpawn { ra, .. } => v.push(Operand::s(ra)),
            TGet { ta, .. } => v.push(Operand::s(ta)),
            TPut { ta, rb, .. } => {
                v.push(Operand::s(ta));
                v.push(Operand::s(rb));
            }
            PAlu { pa, pb, .. } => {
                v.push(Operand::p(pa));
                v.push(Operand::p(pb));
            }
            PAluS { pa, sb, .. } => {
                v.push(Operand::p(pa));
                v.push(Operand::s(sb));
            }
            PAluImm { pa, .. } => v.push(Operand::p(pa)),
            PCmp { pa, pb, .. } => {
                v.push(Operand::p(pa));
                v.push(Operand::p(pb));
            }
            PCmpS { pa, sb, .. } => {
                v.push(Operand::p(pa));
                v.push(Operand::s(sb));
            }
            PCmpImm { pa, .. } => v.push(Operand::p(pa)),
            PFlagOp { op, fa, fb, .. } => {
                if op.arity() >= 1 {
                    v.push(Operand::pf(fa));
                }
                if op.arity() >= 2 {
                    v.push(Operand::pf(fb));
                }
            }
            Plw { base, .. } => v.push(Operand::p(base)),
            Psw { ps, base, .. } => {
                v.push(Operand::p(ps));
                v.push(Operand::p(base));
            }
            Pidx { .. } => {}
            PMovS { sa, .. } => v.push(Operand::s(sa)),
            PShift { pa, .. } => v.push(Operand::p(pa)),
            Reduce { pa, .. } => v.push(Operand::p(pa)),
            RCount { fa, .. } => v.push(Operand::pf(fa)),
            RFlag { fa, .. } => v.push(Operand::pf(fa)),
            PFirst { fa, .. } => v.push(Operand::pf(fa)),
            RGet { pa, fa, .. } => {
                v.push(Operand::p(pa));
                v.push(Operand::pf(fa));
            }
        }
        if let Some(Mask::Flag(f)) = self.mask() {
            v.push(Operand::pf(f));
        }
        v
    }

    /// Registers written by this instruction — the canonical *def* set.
    /// Writes to the hardwired zero registers are filtered out.
    ///
    /// Like [`Instr::uses`], this is the one operand-extraction match in
    /// the workspace; [`Instr::writes`] is the same list under its
    /// historical name.
    pub fn defs(&self) -> OperandList {
        use Instr::*;
        let mut v = OperandList::new();
        match *self {
            SAlu { rd, .. }
            | SAluImm { rd, .. }
            | Lw { rd, .. }
            | Li { rd, .. }
            | Lui { rd, .. }
            | Jal { rd, .. }
            | TSpawn { rd, .. }
            | TGet { rd, .. }
            | TId { rd } => v.push(Operand::s(rd)),
            SCmp { fd, .. } | SCmpImm { fd, .. } | SFlagOp { fd, .. } => v.push(Operand::sf(fd)),
            PAlu { pd, .. }
            | PAluS { pd, .. }
            | PAluImm { pd, .. }
            | Plw { pd, .. }
            | Pidx { pd, .. }
            | PMovS { pd, .. }
            | PShift { pd, .. } => v.push(Operand::p(pd)),
            PCmp { fd, .. }
            | PCmpS { fd, .. }
            | PCmpImm { fd, .. }
            | PFlagOp { fd, .. }
            | PFirst { fd, .. } => v.push(Operand::pf(fd)),
            Reduce { sd, .. } | RCount { sd, .. } | RGet { sd, .. } => v.push(Operand::s(sd)),
            RFlag { fd, .. } => v.push(Operand::sf(fd)),
            // TPut writes a *foreign* thread's register; it has no local
            // register destination. The simulator serializes inter-thread
            // transfers at issue time.
            Nop
            | Halt
            | Sw { .. }
            | Bt { .. }
            | Bf { .. }
            | J { .. }
            | Jr { .. }
            | TExit
            | TJoin { .. }
            | TPut { .. }
            | Psw { .. } => {}
        }
        v
    }

    /// Registers read by this instruction (scheduler-facing name for
    /// [`Instr::uses`]).
    pub fn reads(&self) -> OperandList {
        self.uses()
    }

    /// Registers written by this instruction (scheduler-facing name for
    /// [`Instr::defs`]).
    pub fn writes(&self) -> OperandList {
        self.defs()
    }

    /// True if execution uses the multiplier functional unit.
    pub fn uses_multiplier(&self) -> bool {
        match self {
            Instr::SAlu { op, .. }
            | Instr::SAluImm { op, .. }
            | Instr::PAlu { op, .. }
            | Instr::PAluS { op, .. }
            | Instr::PAluImm { op, .. } => op.uses_multiplier(),
            _ => false,
        }
    }

    /// True if execution uses the sequential divider.
    pub fn uses_divider(&self) -> bool {
        match self {
            Instr::SAlu { op, .. }
            | Instr::SAluImm { op, .. }
            | Instr::PAlu { op, .. }
            | Instr::PAluS { op, .. }
            | Instr::PAluImm { op, .. } => op.uses_divider(),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(i: u8) -> SReg {
        SReg::from_index(i)
    }
    fn p(i: u8) -> PReg {
        PReg::from_index(i)
    }
    fn pf(i: u8) -> PFlag {
        PFlag::from_index(i)
    }

    #[test]
    fn classes() {
        assert_eq!(Instr::Nop.class(), InstrClass::Scalar);
        assert_eq!(
            Instr::PAlu { op: AluOp::Add, pd: p(1), pa: p(2), pb: p(3), mask: Mask::All }.class(),
            InstrClass::Parallel
        );
        assert_eq!(
            Instr::Reduce { op: ReduceOp::Max, sd: s(1), pa: p(2), mask: Mask::All }.class(),
            InstrClass::Reduction
        );
        assert_eq!(
            Instr::PFirst { fd: pf(1), fa: pf(2), mask: Mask::All }.class(),
            InstrClass::Reduction
        );
        assert_eq!(Instr::TSpawn { rd: s(1), ra: s(2) }.class(), InstrClass::Scalar);
    }

    #[test]
    fn class_table_is_dense_and_labelled() {
        for (i, c) in InstrClass::ALL.into_iter().enumerate() {
            assert_eq!(c.index(), i);
            assert_eq!(c.to_string(), c.label());
        }
        let labels: Vec<&str> = InstrClass::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels, ["scalar", "parallel", "reduction"]);
    }

    #[test]
    fn reads_include_mask() {
        let i =
            Instr::PAlu { op: AluOp::Add, pd: p(1), pa: p(2), pb: p(3), mask: Mask::Flag(pf(5)) };
        let reads = i.reads();
        assert!(reads.contains(&Operand::pf(pf(5))));
        assert!(reads.contains(&Operand::p(p(2))));
        assert!(reads.contains(&Operand::p(p(3))));
        assert_eq!(i.writes(), vec![Operand::p(p(1))]);
    }

    #[test]
    fn zero_reg_is_not_a_dependency() {
        let i = Instr::SAlu { op: AluOp::Add, rd: s(0), ra: s(0), rb: s(2) };
        assert_eq!(i.reads(), vec![Operand::s(s(2))]);
        assert!(i.writes().is_empty());
    }

    #[test]
    fn flag_arity_limits_reads() {
        let i = Instr::SFlagOp {
            op: FlagOp::Set,
            fd: SFlag::from_index(1),
            fa: SFlag::from_index(2),
            fb: SFlag::from_index(3),
        };
        assert!(i.reads().is_empty());
        let i = Instr::SFlagOp {
            op: FlagOp::Not,
            fd: SFlag::from_index(1),
            fa: SFlag::from_index(2),
            fb: SFlag::from_index(3),
        };
        assert_eq!(i.reads().len(), 1);
    }

    #[test]
    fn functional_unit_usage() {
        let m = Instr::PAlu { op: AluOp::Mul, pd: p(1), pa: p(2), pb: p(3), mask: Mask::All };
        assert!(m.uses_multiplier());
        assert!(!m.uses_divider());
        let d = Instr::SAluImm { op: AluOp::Rem, rd: s(1), ra: s(2), imm: 3 };
        assert!(d.uses_divider());
        assert!(!Instr::Nop.uses_multiplier());
    }

    /// `defs()`/`uses()` are the scoreboard's operand extraction — the
    /// scheduler calls them through the `writes()`/`reads()` names. Fuzz
    /// every instruction form and check the two APIs agree exactly and
    /// uphold the invariants the scoreboard depends on: the mask flag is
    /// a use, zero GPRs never appear, and no def is class-less.
    #[test]
    fn defs_uses_agree_with_scoreboard_extraction() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(41);
        for _ in 0..20_000 {
            let i = crate::gen::random_instr(&mut rng);
            assert_eq!(i.uses(), i.reads(), "{i:?}");
            assert_eq!(i.defs(), i.writes(), "{i:?}");
            for op in i.uses().iter().chain(i.defs().iter()) {
                assert!(!op.is_zero_gpr(), "zero GPR leaked from {i:?}");
            }
            if let Some(Mask::Flag(f)) = i.mask() {
                assert!(i.uses().contains(&Operand::pf(f)), "mask flag missing from uses: {i:?}");
            }
        }
    }

    #[test]
    fn branch_detection() {
        assert!(Instr::J { target: 0 }.is_branch());
        assert!(Instr::Jr { ra: s(1) }.is_branch());
        assert!(Instr::Bt { fa: SFlag::from_index(0), off: -1 }.is_branch());
        assert!(!Instr::Nop.is_branch());
    }
}
