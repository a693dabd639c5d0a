//! The rule set. Each rule carries an id, a summary, a fix hint and a
//! pair of visit hooks: [`Rule::check_file`] for per-file findings and
//! [`Rule::check_workspace`] for cross-artifact consistency.
//!
//! Scope (which files each rule sees) lives in `lint.toml`, not in the
//! rule: the engine feeds a rule only files matching its `include`
//! globs, so rules stay pure visitors. Workspace rules additionally
//! see every parsed file plus the [`crate::graph::Graph`] built over
//! them, which is how the whole-program rules (R7–R10) reason across
//! crate boundaries.

mod r10_dead_api;
mod r1_no_panic;
mod r2_cancel_poll;
mod r3_determinism;
mod r4_lock_io;
mod r5_safety_comment;
mod r6_stats_spec;
mod r7_lock_order;
mod r8_event_loop;
mod r9_verb_conformance;

use crate::config::Config;
use crate::diag::Diagnostic;
use crate::graph::Graph;
use crate::scan::SourceFile;

pub use r10_dead_api::R10DeadApi;
pub use r1_no_panic::R1NoPanic;
pub use r2_cancel_poll::R2CancelPoll;
pub use r3_determinism::R3Determinism;
pub use r4_lock_io::R4LockAcrossIo;
pub use r5_safety_comment::R5SafetyComment;
pub use r6_stats_spec::R6StatsSpec;
pub use r7_lock_order::R7LockOrder;
pub use r8_event_loop::R8EventLoop;
pub use r9_verb_conformance::R9VerbConformance;

/// Read-only view of the lint root handed to workspace-level hooks.
pub struct WorkspaceView<'a> {
    /// The lint root directory.
    pub root: &'a std::path::Path,
    /// Every parsed in-scope file, path-sorted.
    pub files: &'a [SourceFile],
    /// The call/lock graph built over `files`.
    pub graph: &'a Graph,
}

impl WorkspaceView<'_> {
    /// Reads a root-relative file, if it exists.
    pub fn read(&self, rel: &str) -> Option<String> {
        std::fs::read_to_string(self.root.join(rel)).ok()
    }
}

/// One invariant checker. `Sync` because the engine fans per-file
/// checks out over a thread scope.
pub trait Rule: Sync {
    /// Stable rule id (`R1` … `R10`) — what allow comments reference.
    fn id(&self) -> &'static str;

    /// One-line description of the invariant the rule guards.
    fn summary(&self) -> &'static str;

    /// How a violation is fixed (or legitimately suppressed).
    fn fix_hint(&self) -> &'static str;

    /// Per-file hook; `f` is already scoped by the rule's globs.
    fn check_file(&self, f: &SourceFile, out: &mut Vec<Diagnostic>) {
        let _ = (f, out);
    }

    /// Whole-workspace hook for cross-artifact rules.
    fn check_workspace(&self, ws: &WorkspaceView<'_>, cfg: &Config, out: &mut Vec<Diagnostic>) {
        let _ = (ws, cfg, out);
    }

    /// Builds a diagnostic attributed to this rule.
    fn diag(&self, file: &str, line: u32, message: String) -> Diagnostic {
        Diagnostic {
            file: file.to_string(),
            line,
            rule: self.id().to_string(),
            message,
            hint: self.fix_hint().to_string(),
        }
    }
}

/// Every rule, in reporting order.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(R1NoPanic),
        Box::new(R2CancelPoll),
        Box::new(R3Determinism),
        Box::new(R4LockAcrossIo),
        Box::new(R5SafetyComment),
        Box::new(R6StatsSpec),
        Box::new(R7LockOrder),
        Box::new(R8EventLoop),
        Box::new(R9VerbConformance),
        Box::new(R10DeadApi),
    ]
}
