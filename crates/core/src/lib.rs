//! # stategen-core
//!
//! Core of a generative state-machine toolkit, reproducing *"Design,
//! Implementation and Deployment of State Machines Using a Generative
//! Approach"* (Kirby, Dearle & Norcross, DSN 2007).
//!
//! A distributed algorithm whose state space depends on a parameter (such
//! as the replication factor of a BFT commit protocol) cannot be expressed
//! as a single finite state machine. Instead it is captured once as an
//! [`AbstractModel`]; executing the model for a concrete parameter value
//! (via [`generate`]) produces one member of a *family* of FSMs as a
//! [`StateMachine`] value, from which renderers (see the `stategen-render`
//! crate) produce diagrams, documentation and source-level protocol
//! implementations.
//!
//! The generation pipeline follows the paper's four steps: enumerate all
//! possible states, elaborate the transitions for every message, prune
//! unreachable states, and combine equivalent states. Per-stage counts and
//! timings are reported in a [`GenerationReport`].
//!
//! The crate also provides:
//!
//! * [`FsmInstance`] — a runtime interpreter for generated machines
//!   (the paper's "generate on the fly" deployment policy, §4.2);
//! * [`CompiledMachine`] / [`SessionPool`] — the compiled execution tier:
//!   dense transition tables with zero-allocation dispatch and batched
//!   multi-instance stepping;
//! * [`efsm`] — extended finite state machines, the intermediate points on
//!   the paper's algorithm↔FSM spectrum (§3.2, §5.3);
//! * [`hsm`] — hierarchical statecharts (composite states, entry/exit
//!   actions, inherited/internal/cross-level transitions, shallow
//!   history, and guarded/updating transitions over declared variables
//!   and parameters) with a flattening compiler onto the unified flat
//!   IR, so hierarchical specs — guarded or not — run on the flat
//!   execution tiers unchanged;
//! * [`ir`] — the unified lowering IR ([`FlatIr`]): a flat machine with
//!   *optional* guards/updates per transition, the one target every
//!   front-end lowers onto and the one source both compiled tiers
//!   consume (a plain FSM is the degenerate EFSM);
//! * [`artifact`] — deployable machine artifacts: the versioned,
//!   checksummed, canonical binary encoding of a lowered machine plus
//!   its parameter binding, with a paranoid loader that survives
//!   truncation, bit-flips, version skew and hostile bytes (byte layout
//!   and trust model specified in `docs/ARTIFACT_FORMAT.md`);
//! * [`validate_machine`] — structural validation of machines, reported
//!   in the unified [`diag`] vocabulary shared with the semantic
//!   analyzer (`stategen-analysis`);
//! * [`interval`] — the interval abstract domain over the EFSM guard
//!   language, used by the analyzer's guard passes, the flattener's
//!   guard-aware reachability pruning and the statechart determinism
//!   checker.
//!
//! ## Engine tiers
//!
//! A machine can be executed four ways, all behind the common
//! [`ProtocolEngine`] interface and all behaviourally equivalent
//! (asserted by the cross-engine property suites):
//!
//! | tier | type | dispatch cost | use when |
//! |---|---|---|---|
//! | interpreted | [`FsmInstance`] / [`EfsmInstance`] | `BTreeMap` walk / guard enum-tree walk per message | exploring freshly generated machines; debugging; one-off runs |
//! | compiled | [`CompiledMachine`] → [`CompiledInstance`] / [`SessionPool`] | dense-table indexed load, zero allocation | serving traffic at runtime: many instances, hot dispatch, machine known at startup |
//! | compiled EFSM | [`CompiledEfsm`] → [`CompiledEfsmInstance`] / [`EfsmSessionPool`] | guard/update bytecode over a flat op stream, zero allocation | the EFSM tier at runtime: one machine generic over the protocol parameter |
//! | generated | `stategen-generated` (build-time rendered source) | `match` over enum states | machine known at *build* time; maximum specialisation, no machine data at runtime |
//!
//! The interpreted tier needs no preparation; the compiled tiers pay a
//! one-time flattening pass ([`CompiledMachine::compile`],
//! [`CompiledEfsm::compile`]) and then dispatch in a few nanoseconds;
//! the generated tier moves that specialisation to the build.
//!
//! Hierarchical statecharts sit *in front of* these tiers rather than
//! adding a fifth: author a [`HierarchicalMachine`] (composite states,
//! entry/exit actions, shallow history, optionally guards and variable
//! updates on any transition), debug it on the direct
//! [`HsmInstance`] interpreter, then lower it through
//! [`flatten_ir`](HierarchicalMachine::flatten_ir) — reachable
//! configurations become flat states, and inherited transitions plus
//! synthesized exit/entry action sequences become ordinary (possibly
//! guarded) transitions of the unified [`FlatIr`] — and run it on the
//! matching tier above: unguarded statecharts project to an ordinary
//! [`StateMachine`] ([`flatten`](HierarchicalMachine::flatten)) for the
//! dense-table tier, guarded ones compile onto the register-machine
//! tier ([`CompiledEfsm::compile_ir`]), where one compiled machine
//! serves the whole parameterized statechart family. The property
//! suites assert `HsmInstance ≡ FsmInstance(flatten) ≡
//! CompiledInstance(flatten)` over random statecharts and traces (and
//! the guarded four-way equivalence in `stategen-runtime`'s
//! `hsm_guarded_props`). Use the direct interpreter while iterating on
//! a spec (it reports hierarchical positions via [`HsmInstance::is_in`]
//! and needs no compile step); flatten + compile for serving traffic,
//! where dispatch cost and allocation behaviour are identical to any
//! other compiled machine.
//! [`SessionPool`] / [`EfsmSessionPool`] extend the compiled tiers to
//! thousands of concurrent protocol instances stored struct-of-arrays
//! (one `u32` — plus the EFSM's variable registers — per session),
//! stepped with no per-event allocation. They are single-threaded by
//! design; sharding and worker threads belong to the serving
//! `stategen-runtime` crate.
//!
//! ## Example
//!
//! ```
//! use stategen_core::{generate, AbstractModel, Outcome,
//!     StateComponent, StateSpace, StateVector};
//!
//! /// Waits for `quorum` acknowledgements, then completes.
//! struct AckQuorum { quorum: u32 }
//!
//! impl AbstractModel for AckQuorum {
//!     fn machine_name(&self) -> String { format!("acks@{}", self.quorum) }
//!     fn state_space(&self) -> Result<StateSpace, stategen_core::SchemaError> {
//!         StateSpace::new(vec![StateComponent::int("acks", self.quorum)])
//!     }
//!     fn messages(&self) -> Vec<String> { vec!["ack".into()] }
//!     fn start_state(&self) -> StateVector {
//!         self.state_space().unwrap().zero_vector()
//!     }
//!     fn transition(&self, s: &StateVector, _m: &str) -> Outcome {
//!         let mut t = s.clone();
//!         t.set(0, s.get(0) + 1);
//!         Outcome::to(t, vec![])
//!     }
//!     fn is_final_state(&self, s: &StateVector) -> bool {
//!         s.get(0) == self.quorum
//!     }
//! }
//!
//! let generated = generate(&AckQuorum { quorum: 3 })?;
//! // acks ∈ {0,1,2,3}; the acks=3 state is final.
//! assert_eq!(generated.machine.state_count(), 4);
//! assert!(generated.machine.unique_final().is_some());
//! # Ok::<(), stategen_core::GenerateError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod compiled;
pub mod component;
pub mod diag;
pub mod efsm;
pub mod efsm_compiled;
pub mod error;
pub mod fingerprint;
pub mod generator;
pub mod hsm;
pub mod interp;
pub mod interval;
pub mod ir;
pub mod kernel;
pub mod machine;
pub mod model;
pub mod session;
pub mod validate;

pub use artifact::Artifact;
pub use compiled::{CompiledInstance, CompiledMachine};
pub use component::{ComponentKind, StateComponent, StateSpace, StateVector};
pub use diag::{Diagnostic, Level, Lint};
pub use efsm::{Efsm, EfsmBuilder, EfsmInstance};
pub use efsm_compiled::{CompiledEfsm, CompiledEfsmInstance, EfsmBinding};
pub use error::{
    ArtifactError, CompileError, GenerateError, HsmError, InterpError, ParseNameError, SchemaError,
    StategenError, SwapError,
};
pub use fingerprint::{fnv1a, fold_params, Fnv64};
pub use generator::{
    generate, generate_with, merge_equivalent_states, prune_unreachable, GenerateOptions,
    GeneratedMachine, GenerationReport, MergeStrategy, StageTimings,
};
pub use hsm::{
    HierarchicalMachine, HsmBuilder, HsmInstance, HsmState, HsmStateId, HsmTarget, HsmTransition,
};
pub use interp::{FsmInstance, ProtocolEngine};
pub use interval::{
    cond_status, eval_lin, guard_status, guard_unsat, guards_disjoint, CondStatus, Interval,
};
pub use ir::{FlatIr, FlatState, FlatTransition, IrInstance};
pub use kernel::KernelScratch;
pub use machine::{
    Action, MessageId, State, StateId, StateMachine, StateMachineBuilder, StateRole, Transition,
};
pub use model::{AbstractModel, Outcome, TransitionSpec};
pub use session::{EfsmSessionPool, FinishedSet, SessionPool};
pub use validate::{
    missing_transitions, structural_diagnostics, validate_machine, ValidationReport,
};
