//! The benchmark of the Graphene reproduction.
//!
//! Three workloads (`fleet`, `hammer`, `spec-mix`, see [`suite`]) each run in
//! three kinds of process: a set-up that generates the input from a seed and
//! builds the system ([`phases::setup`]), a timed end-to-end run
//! ([`phases::run`]), and a traced run that prices each layer from the
//! outside ([`layers::trace`]). `run.py` next to this crate drives them and
//! prints the metrics; `README.md` explains the choices.

pub mod check;
pub mod input;
pub mod layers;
pub mod mem;
pub mod phases;
pub mod suite;
