(** Benchmark-regression harness behind [tpsim bench].

    Runs a fixed suite of simulator workloads (channel collections and
    a Splash solo run) as independent trials, once with [-j 1] and once
    on the parallel pool, and reports wall clock, simulated cycles/s,
    memory accesses/s (from the microarchitectural counters), speedup
    and max RSS.  Every trial digests its simulation output and the
    sequential/parallel digests must match bit-for-bit, so a reported
    speedup can never come from diverging computation.

    With [baseline] set, accesses/s is compared per experiment against
    the JSON emitted by an earlier run; a relative drop of more than
    25% is a failure.  Keep checked-in baselines
    generous — the gate exists to catch hot-path collapses, not host
    noise (see bench/baseline.json). *)

val run :
  Quality.t ->
  seed:int ->
  jobs:int ->
  platforms:Tp_hw.Platform.t list ->
  json_out:string option ->
  baseline:string option ->
  unit ->
  int
(** Returns the intended exit code: 0, or 1 on a determinism mismatch
    or a baseline regression (details on stderr). *)
