//! Output checks. A failed check never aborts the run: the op is counted
//! as failed and the first few reasons are reported on stderr.

use sega_dcim::cells::Technology;
use sega_dcim::estimator::{estimate, OperatingConditions};
use sega_dcim::explore::ParetoSolution;
use sega_dcim::layout::drc::check_floorplan;
use sega_dcim::layout::MacroLayout;
use sega_dcim::netlist::stats::Audit;
use sega_dcim::UserSpec;

use crate::quality::bits_of;

/// Every front member, re-estimated with the free `estimate`, reproduces
/// its reported objectives bit for bit and stores exactly `Wstore`.
pub fn check_front(
    spec: &UserSpec,
    front: &[ParetoSolution],
    tech: &Technology,
    conditions: &OperatingConditions,
) -> Result<(), String> {
    if front.is_empty() {
        return Err(format!("{}: empty front", label(spec)));
    }
    for s in front {
        if s.design.wstore() != spec.wstore {
            return Err(format!(
                "{}: {} stores {} weights",
                label(spec),
                s.design,
                s.design.wstore()
            ));
        }
        let again = estimate(&s.design, tech, conditions).objectives();
        if bits_of(again) != bits_of(s.objectives()) {
            return Err(format!(
                "{}: {} re-estimates to {again:?}, reported {:?}",
                label(spec),
                s.design,
                s.objectives()
            ));
        }
    }
    Ok(())
}

/// The generator and estimator agree, as `Compiler::compile` demands.
pub fn check_audit(audit: &Audit) -> Result<(), String> {
    if audit.is_consistent(1e-9) {
        Ok(())
    } else {
        Err(format!(
            "audit inconsistent: area error {:.3e}, energy error {:.3e}",
            audit.area_error(),
            audit.energy_error()
        ))
    }
}

/// The floorplan passes DRC.
pub fn check_layout(layout: &MacroLayout) -> Result<(), String> {
    let violations = check_floorplan(layout);
    match violations.first() {
        None => Ok(()),
        Some(v) => Err(format!("{} DRC violations, first: {v}", violations.len())),
    }
}

/// The Verilog text is complete: every `module` is closed and the text
/// ends on `endmodule`.
pub fn check_verilog(verilog: &str) -> Result<(), String> {
    let opened = verilog.lines().filter(|l| l.starts_with("module ")).count();
    let closed = verilog.lines().filter(|l| *l == "endmodule").count();
    if opened == 0 || opened != closed || !verilog.trim_end().ends_with("endmodule") {
        return Err(format!(
            "verilog incomplete: {opened} modules opened, {closed} closed, {} bytes",
            verilog.len()
        ));
    }
    Ok(())
}

/// Length and FNV-1a hash of an output, for pass-to-pass comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Digest {
    len: usize,
    hash: u64,
}

impl Digest {
    /// Digest of `bytes`.
    pub fn of(bytes: &[u8]) -> Digest {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            hash ^= u64::from_le_bytes(word);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Digest {
            len: bytes.len(),
            hash,
        }
    }
}

/// `Ok` when `now` equals the digest recorded on an earlier pass (or
/// records it on the first).
pub fn same_as_before<T: PartialEq + Clone + std::fmt::Debug>(
    what: &str,
    earlier: &mut Option<T>,
    now: T,
) -> Result<(), String> {
    match earlier {
        None => {
            *earlier = Some(now);
            Ok(())
        }
        Some(before) if *before == now => Ok(()),
        Some(_) => Err(format!(
            "{what} differs from an earlier pass with the same seed"
        )),
    }
}

/// Objective bit patterns of a whole front, in report order.
pub fn front_bits(front: &[ParetoSolution]) -> Vec<[u64; 4]> {
    front.iter().map(|s| bits_of(s.objectives())).collect()
}

/// Counts ops and failed checks.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that errored or failed a check.
    pub failed: u64,
}

impl Ledger {
    /// Records one op's verdict, reporting the first failures on stderr.
    pub fn record(&mut self, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = verdict {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("check failed: {why}");
            }
        }
    }

    /// Records a failure found after the op was counted.
    pub fn fail_counted(&mut self, why: String) {
        self.failed += 1;
        if self.failed <= 5 {
            eprintln!("check failed: {why}");
        }
    }
}

/// Short `precision@Wstore` label of a spec.
pub fn label(spec: &UserSpec) -> String {
    format!("{}@{}", spec.precision.name(), spec.wstore)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sega_dcim::estimator::Precision;
    use sega_dcim::{Compiler, DistillStrategy};

    fn small_compile() -> (UserSpec, sega_dcim::CompiledMacro) {
        let spec = UserSpec::new(4096, Precision::Int2).unwrap();
        let compiled = Compiler::new()
            .with_exploration_budget(16, 6)
            .compile(&spec, DistillStrategy::Knee)
            .unwrap();
        (spec, compiled)
    }

    fn setting() -> (Technology, OperatingConditions) {
        (Technology::tsmc28(), OperatingConditions::paper_default())
    }

    #[test]
    fn genuine_outputs_pass() {
        let (spec, c) = small_compile();
        let (tech, cond) = setting();
        check_front(&spec, &c.frontier, &tech, &cond).unwrap();
        check_audit(&c.audit).unwrap();
        check_layout(&c.layout).unwrap();
        check_verilog(&c.verilog).unwrap();
    }

    #[test]
    fn flipped_objective_bit_fails() {
        let (spec, mut c) = small_compile();
        let (tech, cond) = setting();
        let area = &mut c.frontier[0].estimate.area_mm2;
        *area = f64::from_bits(area.to_bits() ^ 1);
        let mut ledger = Ledger::default();
        ledger.record(check_front(&spec, &c.frontier, &tech, &cond));
        assert_eq!((ledger.attempted, ledger.failed), (1, 1));
    }

    #[test]
    fn wrong_capacity_fails() {
        let (_, c) = small_compile();
        let (tech, cond) = setting();
        let other = UserSpec::new(8192, Precision::Int2).unwrap();
        assert!(check_front(&other, &c.frontier, &tech, &cond).is_err());
    }

    #[test]
    fn truncated_verilog_fails() {
        let (_, c) = small_compile();
        let truncated = &c.verilog[..c.verilog.len() / 2];
        let mut ledger = Ledger::default();
        ledger.record(check_verilog(truncated));
        let mut first = None;
        same_as_before("verilog", &mut first, Digest::of(c.verilog.as_bytes())).unwrap();
        ledger.record(same_as_before(
            "verilog",
            &mut first,
            Digest::of(truncated.as_bytes()),
        ));
        // Dropping only the trailing newline still changes the digest.
        let trimmed = c.verilog.trim_end();
        ledger.record(same_as_before(
            "verilog",
            &mut first,
            Digest::of(trimmed.as_bytes()),
        ));
        assert_eq!((ledger.attempted, ledger.failed), (3, 3));
    }

    #[test]
    fn forced_drc_violation_fails() {
        let (_, mut c) = small_compile();
        let die_width = c.layout.die.w;
        c.layout.regions[0].rect.x += 2.0 * die_width;
        let mut ledger = Ledger::default();
        ledger.record(check_layout(&c.layout));
        assert_eq!((ledger.attempted, ledger.failed), (1, 1));
    }

    #[test]
    fn same_as_before_accepts_repeats() {
        let mut first = None;
        same_as_before("x", &mut first, vec![[1u64; 4]]).unwrap();
        same_as_before("x", &mut first, vec![[1u64; 4]]).unwrap();
        assert!(same_as_before("x", &mut first, vec![[2u64; 4]]).is_err());
    }
}
