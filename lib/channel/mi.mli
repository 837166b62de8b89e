(** Continuous mutual information between discrete inputs and
    continuous outputs.

    The channel model of §5.1: the sender places symbols from a finite
    input set into the pipe; the receiver observes a real-valued time
    measurement.  MI is computed between a {e uniform} distribution on
    inputs and the observed conditional output densities (estimated by
    {!Kde}), integrated with the rectangle method:

    {v M = Σ_i (1/k) ∫ f_i(y) log2( f_i(y) / f(y) ) dy v}

    where [f] is the equal-weight mixture of the per-input densities.
    The result is in bits per channel use. *)

type samples = { input : int array; output : float array }
(** Paired observations; arrays must have equal non-zero length.
    Inputs are symbol indices (need not be contiguous, but MI weights
    every {e distinct} observed symbol equally, per the paper). *)

val default_grid_points : int

val estimate : ?grid_points:int -> samples -> float
(** Estimated mutual information in bits.  Always ≥ 0 (negative
    integration artefacts are clamped) and ≤ log2 of the number of
    distinct input symbols. *)

val estimate_with_permutation :
  ?grid_points:int -> samples -> perm:int array -> float
(** MI after re-pairing outputs by the permutation (used by the
    shuffle test in {!Leakage}); [perm] must be a permutation of
    [0 .. n-1]. *)

(** {2 Repeated estimates on one dataset}

    {!Leakage} estimates MI on one dataset and on 100 re-pairings of
    it.  A {!scratch} does the work they share once: it groups the
    samples by symbol, fixes the grid (it depends only on the range of
    the outputs) and sizes every buffer.  {!estimate} and
    {!estimate_with_permutation} are this path with a fresh scratch. *)

type scratch

val scratch : ?grid_points:int -> samples -> scratch

val estimate_into : scratch -> perm:int array -> float array -> int -> unit
(** [estimate_into sc ~perm dst i] stores [estimate_with_permutation
    s ~perm] (for the [s] of [sc]) in [dst.(i)], bit for bit, and
    allocates nothing. *)

val bits_to_millibits : float -> float
