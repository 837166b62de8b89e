(* Tests for the MI measurement toolchain: KDE, continuous MI, the
   shuffle-based leakage test, channel matrices. *)

open Tp_channel

let rng () = Tp_util.Rng.create ~seed:1234

let test_kde_integrates_to_one () =
  let r = rng () in
  let xs = Array.init 2000 (fun _ -> Tp_util.Rng.gaussian r ~mu:0.0 ~sigma:1.0) in
  let grid = { Kde.lo = -6.0; hi = 6.0; points = 512 } in
  let d = Kde.estimate grid xs in
  let integral = Array.fold_left ( +. ) 0.0 d *. Kde.grid_step grid in
  Alcotest.(check bool) "integral ~ 1" true (Float.abs (integral -. 1.0) < 0.02)

let test_kde_peak_location () =
  let r = rng () in
  let xs = Array.init 3000 (fun _ -> Tp_util.Rng.gaussian r ~mu:2.0 ~sigma:0.3) in
  let grid = { Kde.lo = -1.0; hi = 5.0; points = 600 } in
  let d = Kde.estimate grid xs in
  let peak = ref 0 in
  Array.iteri (fun i v -> if v > d.(!peak) then peak := i) d;
  Alcotest.(check bool) "peak near 2" true
    (Float.abs (Kde.grid_position grid !peak -. 2.0) < 0.2)

let test_kde_degenerate_data () =
  (* Constant samples must not blow up: bandwidth floors to the grid
     step and yields a narrow proper density. *)
  let xs = Array.make 100 5.0 in
  let grid = { Kde.lo = 0.0; hi = 10.0; points = 256 } in
  let d = Kde.estimate grid xs in
  let integral = Array.fold_left ( +. ) 0.0 d *. Kde.grid_step grid in
  Alcotest.(check bool) "finite and ~1" true
    (Float.abs (integral -. 1.0) < 0.05 && Array.for_all Float.is_finite d)

let test_kde_edge_binning () =
  (* Nearest-index binning: half distances round up, uniformly over the
     axis, and out-of-range samples clamp to the end bins.  A single
     sample with a narrow kernel puts the density peak on its bin. *)
  let grid = { Kde.lo = 0.0; hi = 10.0; points = 11 } in
  let peak_of x =
    let d = Kde.estimate grid ~bandwidth:0.1 [| x |] in
    let peak = ref 0 in
    Array.iteri (fun i v -> if v > d.(!peak) then peak := i) d;
    !peak
  in
  Alcotest.(check int) "exact grid point" 7 (peak_of 7.0);
  Alcotest.(check int) "half rounds up" 5 (peak_of 4.5);
  Alcotest.(check int) "below lo clamps to 0" 0 (peak_of (-3.0));
  Alcotest.(check int) "above hi clamps to last" 10 (peak_of 12.0);
  Alcotest.(check int) "just below a boundary" 4 (peak_of 4.4999)

let test_silverman_positive () =
  let r = rng () in
  let xs = Array.init 500 (fun _ -> Tp_util.Rng.gaussian r ~mu:0.0 ~sigma:3.0) in
  Alcotest.(check bool) "positive bandwidth" true (Kde.silverman_bandwidth xs > 0.0)

(* A perfect binary channel: input i -> output exactly i, far apart. *)
let perfect_channel n =
  {
    Mi.input = Array.init n (fun i -> i mod 2);
    output = Array.init n (fun i -> if i mod 2 = 0 then 0.0 else 100.0);
  }

let test_mi_perfect_binary () =
  let m = Mi.estimate (perfect_channel 2000) in
  Alcotest.(check bool) "~1 bit" true (Float.abs (m -. 1.0) < 0.05)

let test_mi_perfect_quaternary () =
  let n = 4000 in
  let s =
    {
      Mi.input = Array.init n (fun i -> i mod 4);
      output = Array.init n (fun i -> float_of_int (i mod 4) *. 50.0);
    }
  in
  let m = Mi.estimate s in
  Alcotest.(check bool) "~2 bits" true (Float.abs (m -. 2.0) < 0.1)

let test_mi_independent_is_zero () =
  let r = rng () in
  let n = 4000 in
  let s =
    {
      Mi.input = Array.init n (fun _ -> Tp_util.Rng.int r 4);
      output = Array.init n (fun _ -> Tp_util.Rng.gaussian r ~mu:10.0 ~sigma:2.0);
    }
  in
  let m = Mi.estimate s in
  Alcotest.(check bool) "~0 bits" true (m < 0.02)

let test_mi_constant_output_zero () =
  let n = 1000 in
  let s =
    { Mi.input = Array.init n (fun i -> i mod 3); output = Array.make n 7.0 }
  in
  Alcotest.(check (float 1e-6)) "exactly 0" 0.0 (Mi.estimate s)

let test_mi_single_symbol_zero () =
  let s = { Mi.input = Array.make 100 0; output = Array.init 100 float_of_int } in
  Alcotest.(check (float 1e-9)) "one symbol -> 0" 0.0 (Mi.estimate s)

let test_mi_noisy_channel_between () =
  (* Overlapping conditionals: 0 < MI < 1. *)
  let r = rng () in
  let n = 4000 in
  let input = Array.init n (fun _ -> Tp_util.Rng.int r 2) in
  let output =
    Array.map
      (fun i -> Tp_util.Rng.gaussian r ~mu:(float_of_int i) ~sigma:1.0)
      input
  in
  let m = Mi.estimate { Mi.input; output } in
  Alcotest.(check bool) "strictly between" true (m > 0.05 && m < 0.95)

let test_mi_uniform_weighting () =
  (* MI weights every symbol equally even with unbalanced samples. *)
  let n = 3000 in
  let input = Array.init n (fun i -> if i < 2700 then 0 else 1) in
  let output = Array.map (fun i -> float_of_int i *. 100.0) input in
  let m = Mi.estimate { Mi.input; output } in
  Alcotest.(check bool) "still ~1 bit" true (Float.abs (m -. 1.0) < 0.1)

let test_mi_permutation_destroys () =
  let r = rng () in
  let s = perfect_channel 2000 in
  let perm = Tp_util.Rng.permutation r 2000 in
  let m = Mi.estimate_with_permutation s ~perm in
  Alcotest.(check bool) "shuffled MI near 0" true (m < 0.05)

let test_leakage_detects_leak () =
  let r = rng () in
  let res = Leakage.test ~rng:r (perfect_channel 1500) in
  Alcotest.(check bool) "verdict = Leak" true (res.Leakage.verdict = Leakage.Leak);
  Alcotest.(check bool) "M > M0" true (res.Leakage.m > res.Leakage.m0)

let test_leakage_accepts_null () =
  let r = rng () in
  let n = 1500 in
  let s =
    {
      Mi.input = Array.init n (fun _ -> Tp_util.Rng.int r 4);
      output = Array.init n (fun _ -> Tp_util.Rng.gaussian r ~mu:0.0 ~sigma:1.0);
    }
  in
  let res = Leakage.test ~rng:r s in
  Alcotest.(check bool) "no leak verdict" true
    (res.Leakage.verdict = Leakage.No_evidence
    || res.Leakage.verdict = Leakage.Negligible)

let test_leakage_noisy_but_real_leak () =
  let r = rng () in
  let n = 2000 in
  let input = Array.init n (fun _ -> Tp_util.Rng.int r 2) in
  let output =
    Array.map
      (fun i -> Tp_util.Rng.gaussian r ~mu:(2.0 *. float_of_int i) ~sigma:1.0)
      input
  in
  let res = Leakage.test ~rng:r { Mi.input; output } in
  Alcotest.(check bool) "detected through noise" true
    (res.Leakage.verdict = Leakage.Leak)

let test_matrix_shape_and_stochastic () =
  let s = perfect_channel 400 in
  let m = Matrix.of_samples ~bins:10 s in
  Alcotest.(check int) "two symbols" 2 (Array.length m.Matrix.symbols);
  (* Columns are conditional distributions: they sum to 1. *)
  Array.iteri
    (fun j _ ->
      let col = Array.fold_left (fun acc row -> acc +. row.(j)) 0.0 m.Matrix.prob in
      Alcotest.(check (float 1e-9)) "column sums to 1" 1.0 col)
    m.Matrix.symbols

let test_matrix_perfect_channel_concentrated () =
  let s = perfect_channel 400 in
  let m = Matrix.of_samples ~bins:10 s in
  (* Symbol 0 -> lowest bin, symbol 1 -> highest bin. *)
  Alcotest.(check (float 1e-9)) "P(bin0|sym0)=1" 1.0 m.Matrix.prob.(0).(0);
  Alcotest.(check (float 1e-9)) "P(bin9|sym1)=1" 1.0 m.Matrix.prob.(9).(1)

let test_capacity_bsc () =
  (* Binary symmetric channel with crossover p: C = 1 - H(p). *)
  let h p = -.(p *. log p /. log 2.) -. ((1. -. p) *. log (1. -. p) /. log 2.) in
  List.iter
    (fun p ->
      let w = [| [| 1. -. p; p |]; [| p; 1. -. p |] |] in
      let c, dist = Capacity.blahut_arimoto w in
      Alcotest.(check (float 1e-3)) "BSC capacity" (1. -. h p) c;
      Alcotest.(check (float 1e-2)) "uniform maximiser" 0.5 dist.(0))
    [ 0.05; 0.1; 0.25; 0.45 ]

let test_capacity_z_channel () =
  (* Z-channel p=0.5: known capacity ~0.3219 bits, maximiser is not
     uniform — exactly what distinguishes capacity from uniform MI. *)
  let w = [| [| 1.0; 0.0 |]; [| 0.5; 0.5 |] |] in
  let c, dist = Capacity.blahut_arimoto w in
  Alcotest.(check (float 1e-3)) "Z-channel capacity" 0.3219 c;
  Alcotest.(check bool) "non-uniform maximiser" true (dist.(0) > 0.55)

let test_capacity_noiseless () =
  let w = [| [| 1.; 0.; 0. |]; [| 0.; 1.; 0. |]; [| 0.; 0.; 1. |] |] in
  let c, _ = Capacity.blahut_arimoto w in
  Alcotest.(check (float 1e-3)) "log2 3" (log 3. /. log 2.) c

let test_capacity_useless_channel () =
  let w = [| [| 0.5; 0.5 |]; [| 0.5; 0.5 |] |] in
  let c, _ = Capacity.blahut_arimoto w in
  Alcotest.(check (float 1e-6)) "zero capacity" 0.0 c

let test_capacity_rejects_bad_matrix () =
  match Capacity.blahut_arimoto [| [| 0.5; 0.2 |] |] with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_capacity_bounds_uniform_mi () =
  (* §5.1: capacity upper-bounds the uniform-input rate. *)
  let r = rng () in
  let n = 3000 in
  let input = Array.init n (fun _ -> Tp_util.Rng.int r 2) in
  let output =
    Array.map
      (fun i -> Tp_util.Rng.gaussian r ~mu:(1.5 *. float_of_int i) ~sigma:1.0)
      input
  in
  let s = { Mi.input; output } in
  let m = Mi.estimate s in
  let c = Capacity.of_samples s in
  Alcotest.(check bool)
    (Printf.sprintf "capacity %.3f >= uniform MI %.3f (within estimation slack)" c m)
    true
    (c >= m -. 0.05)

let qcheck_capacity_vs_mi =
  QCheck.Test.make ~name:"capacity ~ upper bound of uniform MI" ~count:25
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let r = Tp_util.Rng.create ~seed in
      let n = 600 in
      let input = Array.init n (fun _ -> Tp_util.Rng.int r 3) in
      let output =
        Array.map
          (fun i ->
            Tp_util.Rng.gaussian r ~mu:(2.0 *. float_of_int i) ~sigma:1.5)
          input
      in
      let s = { Mi.input; output } in
      Capacity.of_samples s >= Mi.estimate s -. 0.1)

let qcheck_mi_nonnegative_and_bounded =
  QCheck.Test.make ~name:"MI in [0, log2 k]" ~count:60
    QCheck.(pair small_int (list_of_size Gen.(int_range 8 120) (pair (int_bound 3) (float_range 0. 100.))))
    (fun (_, pairs) ->
      QCheck.assume (List.length pairs >= 8);
      let input = Array.of_list (List.map fst pairs) in
      let output = Array.of_list (List.map snd pairs) in
      let k =
        List.length (List.sort_uniq compare (Array.to_list input))
      in
      let m = Mi.estimate { Mi.input; output } in
      m >= 0.0 && m <= (log (float_of_int (max 2 k)) /. log 2.0) +. 0.15)

let qcheck_leakage_m0_nonnegative =
  QCheck.Test.make ~name:"shuffle bound M0 >= 0" ~count:10
    QCheck.(int_range 0 1000)
    (fun seed ->
      let r = Tp_util.Rng.create ~seed in
      let n = 300 in
      let s =
        {
          Mi.input = Array.init n (fun _ -> Tp_util.Rng.int r 2);
          output = Array.init n (fun _ -> Tp_util.Rng.float r 10.0);
        }
      in
      let res = Leakage.test ~shuffles:20 ~rng:r s in
      res.Leakage.m0 >= 0.0 && res.Leakage.m >= 0.0)

(* ---- Bit-identity of the estimator ------------------------------ *)

(* The estimator as it was written before its scratch-based rewrite:
   per-estimate grouping in a Hashtbl, a full kernel and a full-grid
   convolution per density, the output copied for every permutation.
   The rewrite must reproduce it bit for bit. *)
module Reference = struct
  let silverman_bandwidth samples =
    let n = Array.length samples in
    if n = 1 then 0.0
    else begin
      let sd = Tp_util.Stats.std samples in
      let iqr =
        Tp_util.Stats.percentile samples 75.0
        -. Tp_util.Stats.percentile samples 25.0
      in
      let spread = if iqr > 0.0 then Stdlib.min sd (iqr /. 1.34) else sd in
      0.9 *. spread *. (float_of_int n ** -0.2)
    end

  let kde (g : Kde.grid) ?bandwidth samples =
    let step = Kde.grid_step g in
    let h =
      match bandwidth with
      | Some h -> Stdlib.max h step
      | None -> Stdlib.max (silverman_bandwidth samples) step
    in
    let counts = Array.make g.points 0 in
    Array.iter
      (fun x ->
        let q = (x -. g.lo) /. step in
        let i = int_of_float (Float.floor (q +. 0.5)) in
        let i = if i < 0 then 0 else if i >= g.points then g.points - 1 else i in
        counts.(i) <- counts.(i) + 1)
      samples;
    let half_window = int_of_float (Float.ceil (4.0 *. h /. step)) in
    let norm = 1.0 /. (h *. sqrt (2.0 *. Float.pi)) in
    let kernel =
      Array.init
        ((2 * half_window) + 1)
        (fun k ->
          let d = float_of_int (k - half_window) *. step /. h in
          norm *. exp (-0.5 *. d *. d))
    in
    let n = float_of_int (Array.length samples) in
    let density = Array.make g.points 0.0 in
    Array.iteri
      (fun i c ->
        if c > 0 then begin
          let w = float_of_int c /. n in
          let lo = Stdlib.max 0 (i - half_window) in
          let hi = Stdlib.min (g.points - 1) (i + half_window) in
          for j = lo to hi do
            density.(j) <- density.(j) +. (w *. kernel.(j - i + half_window))
          done
        end)
      counts;
    density

  let log2 x = log x /. log 2.0

  let group_by_symbol (s : Mi.samples) =
    let tbl = Hashtbl.create 16 in
    Array.iteri
      (fun idx sym ->
        let prev = try Hashtbl.find tbl sym with Not_found -> [] in
        Hashtbl.replace tbl sym (idx :: prev))
      s.input;
    Hashtbl.fold
      (fun sym idxs acc -> (sym, Array.of_list (List.rev idxs)) :: acc)
      tbl []
    |> List.sort compare

  let estimate_grouped ~grid_points ~output groups =
    let k = List.length groups in
    if k < 2 then 0.0
    else begin
      let lo = Tp_util.Stats.min output and hi = Tp_util.Stats.max output in
      let pad = if hi > lo then 0.1 *. (hi -. lo) else 1.0 in
      let grid = { Kde.lo = lo -. pad; hi = hi +. pad; points = grid_points } in
      let step = Kde.grid_step grid in
      let densities =
        List.map
          (fun (_sym, idxs) -> kde grid (Array.map (fun i -> output.(i)) idxs))
          groups
      in
      let w = 1.0 /. float_of_int k in
      let marginal = Array.make grid_points 0.0 in
      List.iter
        (fun d ->
          Array.iteri (fun g v -> marginal.(g) <- marginal.(g) +. (w *. v)) d)
        densities;
      let mi = ref 0.0 in
      List.iter
        (fun d ->
          for g = 0 to grid_points - 1 do
            let fi = d.(g) and f = marginal.(g) in
            if fi > 1e-300 && f > 1e-300 then
              mi := !mi +. (w *. fi *. log2 (fi /. f) *. step)
          done)
        densities;
      Stdlib.max 0.0 !mi
    end

  let estimate ~grid_points (s : Mi.samples) =
    estimate_grouped ~grid_points ~output:s.output (group_by_symbol s)

  let estimate_with_permutation ~grid_points (s : Mi.samples) ~perm =
    let output = Array.map (fun i -> s.output.(i)) perm in
    estimate_grouped ~grid_points ~output (group_by_symbol { s with output })

  let leakage ~shuffles ~grid_points ~rng (s : Mi.samples) =
    let n = Array.length s.input in
    let m = estimate ~grid_points s in
    let shuffled =
      Array.init shuffles (fun _ ->
          let perm = Tp_util.Rng.permutation rng n in
          estimate_with_permutation ~grid_points s ~perm)
    in
    let mean = Tp_util.Stats.mean shuffled in
    (m, mean +. (1.96 *. Tp_util.Stats.std shuffled))
end

let bits = Int64.bits_of_float
let same_bits a b = Int64.equal (bits a) (bits b)

(* Seeded datasets whose M and M0 were recorded, as hex floats, from
   the reference estimator: a leaky 16-symbol channel, a null channel,
   integer-valued (cycle-count-like) outputs with many duplicates, and
   unbalanced, non-contiguous symbols with one constant group on a
   300-point grid. *)
let pinned_dataset seed =
  let r = Tp_util.Rng.create ~seed in
  match seed with
  | 1 ->
      let input = Array.init 300 (fun i -> i mod 16) in
      let output =
        Array.map
          (fun s ->
            Tp_util.Rng.gaussian r ~mu:(10.0 +. (0.5 *. float_of_int s)) ~sigma:2.0)
          input
      in
      ({ Mi.input; output }, 512)
  | 2 ->
      let input = Array.init 300 (fun _ -> Tp_util.Rng.int r 4) in
      let output = Array.init 300 (fun _ -> Tp_util.Rng.float r 50.0) in
      ({ Mi.input; output }, 512)
  | 3 ->
      let input = Array.init 300 (fun _ -> Tp_util.Rng.int r 16) in
      let output =
        Array.map
          (fun s -> float_of_int (100 + Tp_util.Rng.int r 8 + (2 * (s land 1))))
          input
      in
      ({ Mi.input; output }, 512)
  | _ ->
      let syms = [| 0; 5; 5; 5; 17; 17; 17; 17; 17; 17 |] in
      let input = Array.init 200 (fun _ -> Tp_util.Rng.choose r syms) in
      let output =
        Array.map
          (fun s ->
            if s = 0 then 3.0
            else Tp_util.Rng.gaussian r ~mu:(float_of_int s) ~sigma:4.0)
          input
      in
      ({ Mi.input; output }, 300)

let test_pinned_m_m0 () =
  List.iter
    (fun (seed, m, m0) ->
      let s, grid_points = pinned_dataset seed in
      let res =
        Leakage.test ~grid_points ~rng:(Tp_util.Rng.create ~seed:(100 + seed)) s
      in
      let check what want got =
        Alcotest.(check string)
          (Printf.sprintf "dataset %d: %s" seed what)
          want (Printf.sprintf "%h" got)
      in
      check "M" m res.Leakage.m;
      check "M0" m0 res.Leakage.m0;
      check "estimate" m (Mi.estimate ~grid_points s))
    [
      (1, "0x1.43f27a807c91ap-1", "0x1.1fac882610b74p-3");
      (2, "0x1.83dc07cfe242fp-7", "0x1.d82f3dc153218p-6");
      (3, "0x1.aef64447bcb5dp-3", "0x1.f817bef95465ap-4");
      (4, "0x1.5f34cf471e87ep+0", "0x1.f2a0751c416dp-5");
    ]

(* Datasets for the differential test, by shape:
   0 overlapping Gaussians on non-contiguous (and negative) symbol ids;
   1 a constant output; 2 one symbol; 3 unbalanced groups, one of them
   a single sample; 4 integer outputs with many duplicates; 5 a heavy
   tail with outliers. *)
let differential_dataset (shape, n, seed) =
  let r = Tp_util.Rng.create ~seed in
  let ids = [| -7; 0; 3; 4; 1000 |] in
  let input =
    match shape with
    | 2 -> Array.make n 3
    | 3 ->
        Array.init n (fun i ->
            if i = n / 2 then 9 else if Tp_util.Rng.int r 10 = 0 then 5 else 1)
    | _ -> Array.init n (fun _ -> Tp_util.Rng.choose r ids)
  in
  let output =
    Array.map
      (fun sym ->
        let mu = float_of_int (sym land 7) in
        match shape with
        | 1 -> 42.0
        | 4 -> float_of_int (Tp_util.Rng.int r 6 + (sym land 1))
        | 5 ->
            let u = Tp_util.Rng.float r 1.0 in
            if u < 0.05 then 1e4 *. u else mu -. (20.0 *. log (1.0 -. u))
        | _ -> Tp_util.Rng.gaussian r ~mu ~sigma:2.0)
      input
  in
  { Mi.input; output }

let qcheck_matches_reference =
  QCheck.Test.make ~name:"estimator bit-identical to the reference"
    ~count:150
    QCheck.(
      pair
        (triple (int_bound 5) (int_range 1 120) (int_bound 1_000_000))
        (oneofl [ 2; 7; 64; 300; 512 ]))
    (fun (case, grid_points) ->
      let s = differential_dataset case in
      let n = Array.length s.Mi.input in
      let perm = Tp_util.Rng.permutation (Tp_util.Rng.create ~seed:n) n in
      let m, m0 =
        Reference.leakage ~shuffles:5 ~grid_points
          ~rng:(Tp_util.Rng.create ~seed:n) s
      in
      let res =
        Leakage.test ~shuffles:5 ~grid_points ~rng:(Tp_util.Rng.create ~seed:n) s
      in
      let lo = Tp_util.Stats.min s.output -. 1.0 in
      let grid = { Kde.lo; hi = Tp_util.Stats.max s.output +. 1.0; points = grid_points } in
      let same_density ?bandwidth () =
        let want = Reference.kde grid ?bandwidth s.output in
        let got = Kde.estimate grid ?bandwidth s.output in
        Array.for_all2 same_bits want got
      in
      same_bits (Reference.estimate ~grid_points s) (Mi.estimate ~grid_points s)
      && same_bits
           (Reference.estimate_with_permutation ~grid_points s ~perm)
           (Mi.estimate_with_permutation ~grid_points s ~perm)
      && same_bits m res.Leakage.m && same_bits m0 res.Leakage.m0
      && same_density () && same_density ~bandwidth:0.37 ()
      && same_bits
           (Reference.silverman_bandwidth s.output)
           (Kde.silverman_bandwidth s.output))

let test_kde_huge_bandwidth () =
  (* The kernel window is capped at the grid: a bandwidth far wider
     than the grid neither tries to allocate a window of 8 h / step
     cells nor yields anything but a finite, non-negative, flat-ish
     density. *)
  let grid = { Kde.lo = 0.0; hi = 10.0; points = 512 } in
  List.iter
    (fun bandwidth ->
      let d = Kde.estimate grid ~bandwidth [| 1.0; 2.0; 9.0 |] in
      Alcotest.(check int) "grid-sized" 512 (Array.length d);
      Alcotest.(check bool)
        (Printf.sprintf "finite and non-negative (h = %g)" bandwidth)
        true
        (Array.for_all (fun v -> Float.is_finite v && v >= 0.0) d))
    [ 1e9; 1e300; Float.infinity ]

let suite =
  [
    Alcotest.test_case "kde integrates to 1" `Quick test_kde_integrates_to_one;
    Alcotest.test_case "kde peak location" `Quick test_kde_peak_location;
    Alcotest.test_case "kde degenerate data" `Quick test_kde_degenerate_data;
    Alcotest.test_case "kde edge binning" `Quick test_kde_edge_binning;
    Alcotest.test_case "silverman positive" `Quick test_silverman_positive;
    Alcotest.test_case "mi perfect binary" `Quick test_mi_perfect_binary;
    Alcotest.test_case "mi perfect quaternary" `Quick test_mi_perfect_quaternary;
    Alcotest.test_case "mi independent ~ 0" `Quick test_mi_independent_is_zero;
    Alcotest.test_case "mi constant output" `Quick test_mi_constant_output_zero;
    Alcotest.test_case "mi single symbol" `Quick test_mi_single_symbol_zero;
    Alcotest.test_case "mi noisy channel" `Quick test_mi_noisy_channel_between;
    Alcotest.test_case "mi uniform weighting" `Quick test_mi_uniform_weighting;
    Alcotest.test_case "mi permutation destroys" `Quick test_mi_permutation_destroys;
    Alcotest.test_case "leakage detects leak" `Quick test_leakage_detects_leak;
    Alcotest.test_case "leakage accepts null" `Quick test_leakage_accepts_null;
    Alcotest.test_case "leakage through noise" `Quick test_leakage_noisy_but_real_leak;
    Alcotest.test_case "matrix stochastic" `Quick test_matrix_shape_and_stochastic;
    Alcotest.test_case "matrix concentrated" `Quick test_matrix_perfect_channel_concentrated;
    Alcotest.test_case "capacity: BSC" `Quick test_capacity_bsc;
    Alcotest.test_case "capacity: Z-channel" `Quick test_capacity_z_channel;
    Alcotest.test_case "capacity: noiseless" `Quick test_capacity_noiseless;
    Alcotest.test_case "capacity: useless" `Quick test_capacity_useless_channel;
    Alcotest.test_case "capacity: rejects bad matrix" `Quick
      test_capacity_rejects_bad_matrix;
    Alcotest.test_case "capacity bounds uniform MI" `Quick
      test_capacity_bounds_uniform_mi;
    QCheck_alcotest.to_alcotest qcheck_capacity_vs_mi;
    QCheck_alcotest.to_alcotest qcheck_mi_nonnegative_and_bounded;
    QCheck_alcotest.to_alcotest qcheck_leakage_m0_nonnegative;
    Alcotest.test_case "pinned M and M0 (hex)" `Quick test_pinned_m_m0;
    QCheck_alcotest.to_alcotest qcheck_matches_reference;
    Alcotest.test_case "kde huge bandwidth" `Quick test_kde_huge_bandwidth;
  ]
