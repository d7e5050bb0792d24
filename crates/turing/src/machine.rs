//! Deterministic single-tape Turing machines and their fuel-bounded execution.

use crate::error::TuringError;
use crate::Result;
use std::collections::hash_map::DefaultHasher;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A tape symbol.  `Symbol(0)` is the blank symbol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Symbol(pub u8);

impl Symbol {
    /// The blank symbol, filling every unwritten tape cell.
    pub const BLANK: Symbol = Symbol(0);
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A control state.  `State(0)` is the start state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct State(pub u8);

impl State {
    /// The start state of every machine.
    pub const START: State = State(0);
}

impl fmt::Display for State {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// Head movement.  The tape is one-way infinite to the right; a `Left` move
/// at cell 0 leaves the head in place (the standard convention for one-way
/// tapes, and the one that keeps execution tables grid-shaped).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Move the head one cell to the left (no-op at the leftmost cell).
    Left,
    /// Move the head one cell to the right.
    Right,
    /// Keep the head where it is.
    Stay,
}

/// A single transition rule: in state `q` reading symbol `a`, write `write`,
/// move `direction`, and enter `next_state`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Transition {
    /// Symbol written over the scanned cell.
    pub write: Symbol,
    /// Head movement after writing.
    pub direction: Direction,
    /// Control state entered after the step.
    pub next_state: State,
}

/// A deterministic single-tape Turing machine.
///
/// * States are `0..num_states`, with [`State::START`] the initial state.
/// * Symbols are `0..num_symbols`, with [`Symbol::BLANK`] the blank.
/// * The machine **halts** on `(state, symbol)` pairs with no transition.
/// * The machine's **output** is the symbol under the head when it halts
///   (the convention used throughout this reproduction for the languages
///   `L₀ = {M : M outputs 0}` and `L₁ = {M : M outputs 1}`).
///
/// Machines compare by value (`Eq`): the paper's constructions place the
/// machine description in every node label, and two labels are equal only
/// if they describe the same machine.  The labels share one description
/// through an `Arc` rather than each owning a copy of the name and
/// transition table.
///
/// Hashing writes only the machine's **fingerprint**, one 64-bit word
/// computed once at construction from the name, the state and symbol
/// counts and the transition table.  A label hash is therefore O(1) however
/// large the table is.  Equal machines have equal fingerprints, and `Eq`
/// still compares every field, so the `Hash`/`Eq` contract holds and a
/// fingerprint collision can never make two different machines equal.
#[derive(Clone)]
pub struct TuringMachine {
    name: String,
    num_states: u8,
    num_symbols: u8,
    /// Row-major table indexed by `state * num_symbols + symbol`.
    transitions: Vec<Option<Transition>>,
    /// Hash of the four fields above, fixed at construction.
    fingerprint: u64,
}

impl PartialEq for TuringMachine {
    fn eq(&self, other: &Self) -> bool {
        self.fingerprint == other.fingerprint
            && self.name == other.name
            && self.num_states == other.num_states
            && self.num_symbols == other.num_symbols
            && self.transitions == other.transitions
    }
}

impl Eq for TuringMachine {}

impl Hash for TuringMachine {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.fingerprint);
    }
}

/// The same text as a derived `Debug`: the fingerprint is derived data and
/// stays out of the output.
impl fmt::Debug for TuringMachine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TuringMachine")
            .field("name", &self.name)
            .field("num_states", &self.num_states)
            .field("num_symbols", &self.num_symbols)
            .field("transitions", &self.transitions)
            .finish()
    }
}

impl TuringMachine {
    /// Starts building a machine with the given numbers of states and
    /// symbols.
    pub fn builder(
        name: impl Into<String>,
        num_states: u8,
        num_symbols: u8,
    ) -> TuringMachineBuilder {
        TuringMachineBuilder {
            name: name.into(),
            num_states,
            num_symbols,
            transitions: vec![None; num_states as usize * num_symbols as usize],
            error: None,
        }
    }

    /// A human-readable machine name (used in reports and labels).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of control states.
    pub fn num_states(&self) -> u8 {
        self.num_states
    }

    /// Number of tape symbols (including blank).
    pub fn num_symbols(&self) -> u8 {
        self.num_symbols
    }

    /// The transition for `(state, symbol)`, or `None` if the machine halts
    /// there (or the pair is out of range).
    pub fn transition(&self, state: State, symbol: Symbol) -> Option<Transition> {
        if state.0 >= self.num_states || symbol.0 >= self.num_symbols {
            return None;
        }
        self.transitions[state.0 as usize * self.num_symbols as usize + symbol.0 as usize]
    }

    /// Returns `true` if the machine halts when in `state` scanning `symbol`.
    pub fn halts_on(&self, state: State, symbol: Symbol) -> bool {
        self.transition(state, symbol).is_none()
    }

    /// Raw access to the transition table in row-major order (used by the
    /// encoder).
    pub(crate) fn raw_transitions(&self) -> &[Option<Transition>] {
        &self.transitions
    }

    /// Constructs a machine directly from its parts (used by the decoder).
    pub(crate) fn from_parts(
        name: String,
        num_states: u8,
        num_symbols: u8,
        transitions: Vec<Option<Transition>>,
    ) -> Result<Self> {
        if num_states == 0 || num_symbols == 0 {
            return Err(TuringError::InvalidMachine {
                reason: "a machine needs at least one state and one symbol".into(),
            });
        }
        if transitions.len() != num_states as usize * num_symbols as usize {
            return Err(TuringError::InvalidMachine {
                reason: format!(
                    "transition table has {} entries, expected {}",
                    transitions.len(),
                    num_states as usize * num_symbols as usize
                ),
            });
        }
        for (i, t) in transitions.iter().enumerate() {
            if let Some(t) = t {
                if t.next_state.0 >= num_states || t.write.0 >= num_symbols {
                    return Err(TuringError::InvalidTransition {
                        state: (i / num_symbols as usize) as u8,
                        symbol: (i % num_symbols as usize) as u8,
                        reason: "writes an out-of-range symbol or enters an out-of-range state"
                            .into(),
                    });
                }
            }
        }
        let mut hasher = DefaultHasher::new();
        (&name, num_states, num_symbols, &transitions).hash(&mut hasher);
        Ok(TuringMachine {
            name,
            num_states,
            num_symbols,
            transitions,
            fingerprint: hasher.finish(),
        })
    }

    /// The initial configuration on a blank tape.
    pub fn initial_configuration(&self) -> Configuration {
        Configuration {
            tape: vec![Symbol::BLANK],
            head: 0,
            state: State::START,
            steps: 0,
        }
    }

    /// Performs one step on `config`.  Returns `false` (leaving the
    /// configuration untouched) if the machine is already halted.
    pub fn step(&self, config: &mut Configuration) -> bool {
        let scanned = config.scanned();
        let Some(t) = self.transition(config.state, scanned) else {
            return false;
        };
        config.tape[config.head] = t.write;
        match t.direction {
            Direction::Left => {
                config.head = config.head.saturating_sub(1);
            }
            Direction::Right => {
                config.head += 1;
                if config.head == config.tape.len() {
                    config.tape.push(Symbol::BLANK);
                }
            }
            Direction::Stay => {}
        }
        config.state = t.next_state;
        config.steps += 1;
        true
    }

    /// Runs the machine from the blank tape for at most `fuel` steps.
    pub fn run(&self, fuel: u64) -> RunOutcome {
        self.run_from(self.initial_configuration(), fuel)
    }

    /// Runs the machine from `config` for at most `fuel` additional steps.
    pub fn run_from(&self, mut config: Configuration, fuel: u64) -> RunOutcome {
        for _ in 0..fuel {
            if !self.step(&mut config) {
                return RunOutcome::Halted(HaltInfo {
                    steps: config.steps,
                    output: config.scanned(),
                    final_configuration: config,
                });
            }
        }
        if self.transition(config.state, config.scanned()).is_none() {
            return RunOutcome::Halted(HaltInfo {
                steps: config.steps,
                output: config.scanned(),
                final_configuration: config,
            });
        }
        RunOutcome::OutOfFuel(config)
    }

    /// Convenience: the machine's running time if it halts within `fuel`
    /// steps, else `None`.
    pub fn running_time(&self, fuel: u64) -> Option<u64> {
        match self.run(fuel) {
            RunOutcome::Halted(h) => Some(h.steps),
            RunOutcome::OutOfFuel(_) => None,
        }
    }

    /// Convenience: the machine's output if it halts within `fuel` steps.
    pub fn output(&self, fuel: u64) -> Option<Symbol> {
        match self.run(fuel) {
            RunOutcome::Halted(h) => Some(h.output),
            RunOutcome::OutOfFuel(_) => None,
        }
    }
}

impl fmt::Display for TuringMachine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} states, {} symbols)",
            self.name, self.num_states, self.num_symbols
        )
    }
}

/// Builder for [`TuringMachine`]; collect rules with
/// [`TuringMachineBuilder::rule`] and finish with
/// [`TuringMachineBuilder::build`].
#[derive(Debug, Clone)]
pub struct TuringMachineBuilder {
    name: String,
    num_states: u8,
    num_symbols: u8,
    transitions: Vec<Option<Transition>>,
    error: Option<TuringError>,
}

impl TuringMachineBuilder {
    /// Adds the rule "in `state` reading `read`: write `write`, move
    /// `direction`, go to `next`".
    pub fn rule(
        &mut self,
        state: State,
        read: Symbol,
        write: Symbol,
        direction: Direction,
        next: State,
    ) -> &mut Self {
        if self.error.is_some() {
            return self;
        }
        if state.0 >= self.num_states || read.0 >= self.num_symbols {
            self.error = Some(TuringError::InvalidTransition {
                state: state.0,
                symbol: read.0,
                reason: "rule is indexed by an out-of-range state or symbol".into(),
            });
            return self;
        }
        if next.0 >= self.num_states || write.0 >= self.num_symbols {
            self.error = Some(TuringError::InvalidTransition {
                state: state.0,
                symbol: read.0,
                reason: "rule writes an out-of-range symbol or enters an out-of-range state".into(),
            });
            return self;
        }
        let idx = state.0 as usize * self.num_symbols as usize + read.0 as usize;
        self.transitions[idx] = Some(Transition {
            write,
            direction,
            next_state: next,
        });
        self
    }

    /// Finishes the machine.
    ///
    /// # Errors
    ///
    /// Returns the first rule error encountered, or an
    /// [`TuringError::InvalidMachine`] for structurally impossible machines.
    pub fn build(&self) -> Result<TuringMachine> {
        if let Some(e) = &self.error {
            return Err(e.clone());
        }
        TuringMachine::from_parts(
            self.name.clone(),
            self.num_states,
            self.num_symbols,
            self.transitions.clone(),
        )
    }
}

/// A machine configuration: tape contents, head position, control state, and
/// the number of steps taken so far.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Configuration {
    /// Tape contents from cell 0 up to the rightmost visited cell.
    pub tape: Vec<Symbol>,
    /// Head position (an index into `tape`).
    pub head: usize,
    /// Current control state.
    pub state: State,
    /// Steps taken since the initial configuration.
    pub steps: u64,
}

impl Configuration {
    /// The symbol currently under the head.
    pub fn scanned(&self) -> Symbol {
        self.tape.get(self.head).copied().unwrap_or(Symbol::BLANK)
    }

    /// The symbol at cell `i` (blank beyond the visited region).
    pub fn cell(&self, i: usize) -> Symbol {
        self.tape.get(i).copied().unwrap_or(Symbol::BLANK)
    }
}

/// Information about a halted run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HaltInfo {
    /// Number of steps until halting.
    pub steps: u64,
    /// The output: the symbol under the head at halt time.
    pub output: Symbol,
    /// The full final configuration.
    pub final_configuration: Configuration,
}

/// Result of a fuel-bounded run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunOutcome {
    /// The machine halted within the fuel budget.
    Halted(HaltInfo),
    /// The fuel ran out before the machine halted; the configuration reached
    /// is returned so that the run can be resumed.
    OutOfFuel(Configuration),
}

impl RunOutcome {
    /// Returns the halt information if the machine halted.
    pub fn halted(&self) -> Option<&HaltInfo> {
        match self {
            RunOutcome::Halted(h) => Some(h),
            RunOutcome::OutOfFuel(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 2-state machine that writes `1` and halts immediately after one step.
    fn write_one_and_halt() -> TuringMachine {
        let mut b = TuringMachine::builder("write1", 2, 2);
        b.rule(State(0), Symbol(0), Symbol(1), Direction::Stay, State(1));
        b.build().unwrap()
    }

    #[test]
    fn builder_rejects_out_of_range_rules() {
        let mut b = TuringMachine::builder("bad", 1, 2);
        b.rule(State(5), Symbol(0), Symbol(0), Direction::Right, State(0));
        assert!(matches!(
            b.build(),
            Err(TuringError::InvalidTransition { .. })
        ));

        let mut b = TuringMachine::builder("bad2", 2, 2);
        b.rule(State(0), Symbol(0), Symbol(7), Direction::Right, State(0));
        assert!(b.build().is_err());
    }

    #[test]
    fn zero_state_machine_is_invalid() {
        assert!(TuringMachine::from_parts("x".into(), 0, 1, vec![]).is_err());
    }

    #[test]
    fn single_step_machine_halts_with_output_one() {
        let m = write_one_and_halt();
        match m.run(10) {
            RunOutcome::Halted(h) => {
                assert_eq!(h.steps, 1);
                assert_eq!(h.output, Symbol(1));
            }
            RunOutcome::OutOfFuel(_) => panic!("machine must halt"),
        }
        assert_eq!(m.output(10), Some(Symbol(1)));
        assert_eq!(m.running_time(10), Some(1));
    }

    #[test]
    fn run_out_of_fuel_is_resumable() {
        // A machine that moves right forever.
        let mut b = TuringMachine::builder("right", 1, 2);
        b.rule(State(0), Symbol(0), Symbol(1), Direction::Right, State(0));
        b.rule(State(0), Symbol(1), Symbol(1), Direction::Right, State(0));
        let m = b.build().unwrap();
        let RunOutcome::OutOfFuel(config) = m.run(5) else {
            panic!("must not halt");
        };
        assert_eq!(config.steps, 5);
        assert_eq!(config.head, 5);
        let RunOutcome::OutOfFuel(config2) = m.run_from(config, 3) else {
            panic!("must not halt");
        };
        assert_eq!(config2.steps, 8);
    }

    #[test]
    fn left_move_at_cell_zero_stays_put() {
        let mut b = TuringMachine::builder("leftstuck", 2, 2);
        b.rule(State(0), Symbol(0), Symbol(1), Direction::Left, State(1));
        let m = b.build().unwrap();
        let RunOutcome::Halted(h) = m.run(10) else {
            panic!()
        };
        assert_eq!(h.final_configuration.head, 0);
        assert_eq!(h.output, Symbol(1));
    }

    #[test]
    fn halting_detection_without_consuming_fuel() {
        // A machine with no rules halts in 0 steps even with 0 fuel.
        let m = TuringMachine::builder("empty", 1, 1).build().unwrap();
        let RunOutcome::Halted(h) = m.run(0) else {
            panic!()
        };
        assert_eq!(h.steps, 0);
        assert_eq!(h.output, Symbol::BLANK);
    }

    #[test]
    fn transition_lookup_out_of_range_is_none() {
        let m = write_one_and_halt();
        assert!(m.transition(State(9), Symbol(0)).is_none());
        assert!(m.transition(State(0), Symbol(9)).is_none());
        assert!(m.halts_on(State(1), Symbol(1)));
    }

    #[test]
    fn configuration_cell_beyond_tape_is_blank() {
        let m = write_one_and_halt();
        let c = m.initial_configuration();
        assert_eq!(c.cell(100), Symbol::BLANK);
        assert_eq!(c.scanned(), Symbol::BLANK);
    }

    fn hash_of(m: &TuringMachine) -> u64 {
        let mut hasher = DefaultHasher::new();
        m.hash(&mut hasher);
        hasher.finish()
    }

    #[test]
    fn separately_built_machines_compare_and_hash_by_value() {
        let a = write_one_and_halt();
        let b = write_one_and_halt();
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));

        let mut changed = TuringMachine::builder("write1", 2, 2);
        changed.rule(State(0), Symbol(0), Symbol(0), Direction::Stay, State(1));
        let changed = changed.build().unwrap();
        assert_ne!(a, changed, "one transition differs");
        assert_ne!(hash_of(&a), hash_of(&changed));

        let mut renamed = TuringMachine::builder("write1-renamed", 2, 2);
        renamed.rule(State(0), Symbol(0), Symbol(1), Direction::Stay, State(1));
        let renamed = renamed.build().unwrap();
        assert_ne!(a, renamed, "only the name differs");
        assert_ne!(hash_of(&a), hash_of(&renamed));
    }

    #[test]
    fn debug_output_is_the_derived_text_without_the_fingerprint() {
        let machine = write_one_and_halt();
        // The struct as it reads without a fingerprint, with a derived `Debug`
        // (which dead-code analysis does not count as reading the fields).
        #[allow(dead_code)]
        #[derive(Debug)]
        struct TuringMachine {
            name: String,
            num_states: u8,
            num_symbols: u8,
            transitions: Vec<Option<Transition>>,
        }
        let derived = TuringMachine {
            name: machine.name.clone(),
            num_states: machine.num_states,
            num_symbols: machine.num_symbols,
            transitions: machine.transitions.clone(),
        };
        assert_eq!(format!("{machine:?}"), format!("{derived:?}"));
        assert_eq!(format!("{machine:#?}"), format!("{derived:#?}"));
    }

    #[test]
    fn display_impls() {
        let m = write_one_and_halt();
        assert!(m.to_string().contains("write1"));
        assert_eq!(State(3).to_string(), "q3");
        assert_eq!(Symbol(2).to_string(), "s2");
    }
}
