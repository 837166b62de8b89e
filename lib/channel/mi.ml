type samples = { input : int array; output : float array }

let default_grid_points = 512

let ln2 = log 2.0

type scratch = {
  output : float array;
  idx : int array;
      (** sample indices grouped by symbol (ascending), each group in
          index order *)
  start : int array;  (** group [g] is [idx.(start.(g) .. start.(g+1) - 1)] *)
  xs : float array;  (** the outputs, gathered in [idx] order *)
  kde : Kde.work;
  step : float;  (** the grid step *)
  dens : float array array;  (** per-group densities *)
  sup_lo : int array;  (** [dens.(g)] is 0.0 outside [sup_lo.(g) .. sup_hi.(g)] *)
  sup_hi : int array;
  marginal : float array;
}

let scratch ?(grid_points = default_grid_points) (s : samples) =
  let n = Array.length s.output in
  assert (Array.length s.input = n);
  assert (n > 0);
  let idx = Array.init n Fun.id in
  Array.stable_sort (fun a b -> Int.compare s.input.(a) s.input.(b)) idx;
  let starts = ref [ n ] in
  for p = n - 1 downto 1 do
    if s.input.(idx.(p)) <> s.input.(idx.(p - 1)) then starts := p :: !starts
  done;
  let start = Array.of_list (0 :: !starts) in
  let k = Array.length start - 1 in
  let lo = Tp_util.Stats.min s.output and hi = Tp_util.Stats.max s.output in
  (* Pad the grid so Gaussian tails are integrated; degenerate ranges
     get a symmetric unit pad. *)
  let pad = if hi > lo then 0.1 *. (hi -. lo) else 1.0 in
  let grid = { Kde.lo = lo -. pad; hi = hi +. pad; points = grid_points } in
  {
    output = s.output;
    idx;
    start;
    xs = Array.make n 0.0;
    kde = Kde.work grid;
    step = Kde.grid_step grid;
    dens = Array.init k (fun _ -> Array.make grid_points 0.0);
    sup_lo = Array.make k 0;
    sup_hi = Array.make k (grid_points - 1);
    marginal = Array.make grid_points 0.0;
  }

(* M = Σ_i (1/k) Σ_y f_i(y) log2(f_i(y) / f(y)) · step, in the order of
   the full-grid sum; cells outside a density's support are exact zeros
   and add nothing to the marginal or to M. *)
let estimate_into sc ~perm dst i =
  let k = Array.length sc.dens in
  let n = Array.length sc.output in
  assert (Array.length perm = n);
  if k < 2 then dst.(i) <- 0.0
  else begin
    let output = sc.output and xs = sc.xs and idx = sc.idx in
    for p = 0 to n - 1 do
      xs.(p) <- output.(perm.(idx.(p)))
    done;
    for g = 0 to k - 1 do
      let d = sc.dens.(g) in
      Array.fill d sc.sup_lo.(g) (sc.sup_hi.(g) - sc.sup_lo.(g) + 1) 0.0;
      let off = sc.start.(g) in
      Kde.density_into sc.kde xs ~off ~len:(sc.start.(g + 1) - off) d;
      sc.sup_lo.(g) <- Kde.support_lo sc.kde;
      sc.sup_hi.(g) <- Kde.support_hi sc.kde
    done;
    let w = 1.0 /. float_of_int k in
    let marginal = sc.marginal in
    Array.fill marginal 0 (Array.length marginal) 0.0;
    for g = 0 to k - 1 do
      let d = sc.dens.(g) in
      for y = sc.sup_lo.(g) to sc.sup_hi.(g) do
        marginal.(y) <- marginal.(y) +. (w *. d.(y))
      done
    done;
    let step = sc.step in
    let mi = ref 0.0 in
    for g = 0 to k - 1 do
      let d = sc.dens.(g) in
      for y = sc.sup_lo.(g) to sc.sup_hi.(g) do
        let fi = d.(y) and f = marginal.(y) in
        if fi > 1e-300 && f > 1e-300 then
          mi := !mi +. (w *. fi *. (log (fi /. f) /. ln2) *. step)
      done
    done;
    (* Numerical integration can produce tiny negatives; MI is >= 0. *)
    dst.(i) <- (if 0.0 >= !mi then 0.0 else !mi)
  end

let estimate_with_permutation ?grid_points s ~perm =
  let dst = [| 0.0 |] in
  estimate_into (scratch ?grid_points s) ~perm dst 0;
  dst.(0)

let estimate ?grid_points (s : samples) =
  estimate_with_permutation ?grid_points s
    ~perm:(Array.init (Array.length s.output) Fun.id)

let bits_to_millibits b = 1000.0 *. b
