//! Scoped-thread window execution for `ShardKind::Parallel`.
//!
//! The coordinator builds one [`LaneView`](crate::lane::LaneView) per
//! lane — mutually disjoint mutable slices of the network plus shared
//! read-only topology — and this module runs each view's window on its
//! own scoped thread. The views are disjoint by construction
//! (`Network::run_windows_threaded` carves the one per-node slot vector
//! with `split_at_mut`), so the only thing standing between them and `std::thread::scope` is
//! `Send`: nodes hold `Rc`-based packet pools that are not `Send`,
//! even though no clone of those `Rc`s ever lives outside the owning
//! lane once the split re-homed every pool (`Network::ensure_split`
//! rebuilds per-lane pools and severs every pooled buffer that
//! predates the split). Applications are *not* part of the assertion:
//! `Application: Send` is a supertrait bound, and app result handles
//! are `Arc<Mutex>` (see `app::Shared`), so a checker shared between a
//! sender and a sink in different lanes is genuinely thread-safe —
//! window outcomes stay schedule-independent because each lane touches
//! shared handles only inside its own window and cross-lane frames
//! deliver only after the scope joins.
//!
//! [`SendView`] asserts exactly that invariant. It is the one unsafe
//! impl in the workspace, and the safety argument is confinement, not
//! thread-safety of the payload: each wrapper moves to one thread,
//! every `Rc` reachable from it has all its clones inside the same
//! view, and the scope joins before the coordinator touches the lanes
//! again.

use crate::lane::LaneView;

/// A lane view being moved to its window thread. See the module docs
/// for the confinement argument that justifies the `Send` assertion.
pub(crate) struct SendView<'a>(pub LaneView<'a>);

// SAFETY: a `LaneView` is a set of mutable borrows that are disjoint
// across views (distinct lanes, distinct slot ranges: each view's
// nodes, apps and per-node bookkeeping) plus shared references to
// immutable topology. The non-`Send` interior (`Rc` packet pools
// inside nodes/buffers, `Rc` attestation registries) is confined:
// `ensure_split` gives each lane a private pool and detaches every
// buffer allocated before the split, re-homing severs cross-lane `Rc`
// sharing, and attestation-bearing networks are demoted to serial
// execution before this type is ever constructed. `dyn Application`
// boxes need no argument — `Application: Send` is a trait bound. Each
// `SendView` is moved to exactly one thread and the scope joins before
// any other access.
#[allow(unsafe_code)]
unsafe impl Send for SendView<'_> {}

/// Run each view's window to its paired limit on its own scoped
/// thread — limits are per lane under the per-pair lookahead, not one
/// global bound. Panics in lane threads propagate to the caller (a
/// determinism assertion failing inside a lane must fail the run, not
/// vanish).
pub(crate) fn run_each_threaded(views: Vec<(SendView<'_>, catenet_sim::Instant)>) {
    std::thread::scope(|scope| {
        let handles: Vec<_> = views
            .into_iter()
            .map(|(view, limit)| {
                scope.spawn(move || {
                    // Move the whole wrapper, not `view.0`: edition-2021
                    // disjoint capture would otherwise grab the inner
                    // `LaneView` field directly and sidestep the `Send`
                    // assertion on the wrapper.
                    let mut wrapper = view;
                    wrapper.0.run_window(limit);
                })
            })
            .collect();
        for handle in handles {
            if let Err(panic) = handle.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
}
