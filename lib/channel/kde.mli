(** Gaussian kernel density estimation over a fixed evaluation grid.

    The paper's methodology (§5.1) models attacker time measurements as
    a continuous probability density per input symbol, estimated with
    KDE [Silverman 1986].  We use the binned variant: samples are first
    histogrammed onto the evaluation grid, then the Gaussian kernel is
    applied to bin counts.

    Cost of one density of [n] samples with a kernel half-window of
    [hw] grid steps: one sort of the samples (for Silverman's
    percentiles), [hw + 1] [exp]s (the kernel is symmetric, so one half
    is evaluated), and [hw + 1 .. 2hw + 1] multiply-adds per {e
    occupied} bin — never a pass over the whole grid.  With a {!work}
    sized once, {!density_into} allocates nothing, which is what makes
    the 100-shuffle leakage test cheap. *)

type grid = { lo : float; hi : float; points : int }
(** Evaluation grid: [points] equally spaced positions covering
    [\[lo, hi\]]. *)

val grid_step : grid -> float

val grid_position : grid -> int -> float

val silverman_bandwidth : float array -> float
(** Silverman's rule of thumb: [0.9 * min(sd, iqr/1.34) * n^(-1/5)].
    Returns 0 for degenerate (constant) samples; callers must apply a
    floor (see {!estimate}). *)

val estimate : grid -> ?bandwidth:float -> float array -> float array
(** [estimate grid samples] returns the estimated density at each grid
    position.  If [bandwidth] is omitted, Silverman's rule is used,
    floored at one grid step so that deterministic (zero-variance) data
    still yields a proper, narrow density instead of a division by
    zero.  The result integrates to ~1 over the grid (up to edge
    truncation). *)

(** {2 Repeated estimates without allocation} *)

type work
(** Scratch for densities on one grid: bin counts and the kernel. *)

val work : grid -> work

val density_into :
  work -> ?bandwidth:float -> float array -> off:int -> len:int ->
  float array -> unit
(** [density_into w xs ~off ~len dst] adds the density of
    [xs.(off) .. xs.(off + len - 1)] into [dst] (of [points] cells,
    which must be [0.0] on entry) exactly as {!estimate} computes it,
    and may reorder that slice of [xs].  Afterwards [dst] is still
    [0.0] outside [\[support_lo w, support_hi w\]]. *)

val support_lo : work -> int

val support_hi : work -> int
