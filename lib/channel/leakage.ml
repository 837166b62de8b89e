type verdict = Leak | No_evidence | Negligible

type result = {
  m : float;
  m0 : float;
  n : int;
  verdict : verdict;
  shuffle_mean : float;
  shuffle_std : float;
}

let resolution_bits = 0.001

let test ?(shuffles = 100) ?(grid_points = Mi.default_grid_points) ~rng samples =
  let n = Array.length samples.Mi.input in
  assert (n > 0);
  let sc = Mi.scratch ~grid_points samples in
  (* [est.(shuffles)] is M; [est.(i)] the i-th shuffled estimate. *)
  let est = Array.make (shuffles + 1) 0.0 in
  let perm = Array.init n Fun.id in
  Mi.estimate_into sc ~perm est shuffles;
  for i = 0 to shuffles - 1 do
    (* [Rng.permutation], in a reused buffer. *)
    for j = 0 to n - 1 do
      perm.(j) <- j
    done;
    Tp_util.Rng.shuffle rng perm;
    Mi.estimate_into sc ~perm est i
  done;
  let m = est.(shuffles) and shuffled = Array.sub est 0 shuffles in
  let mean = Tp_util.Stats.mean shuffled in
  let std = Tp_util.Stats.std shuffled in
  let m0 = mean +. (1.96 *. std) in
  let verdict =
    if m <= resolution_bits then Negligible
    else if m > m0 then Leak
    else No_evidence
  in
  { m; m0; n; verdict; shuffle_mean = mean; shuffle_std = std }

let pp_verdict ppf = function
  | Leak -> Format.pp_print_string ppf "LEAK"
  | No_evidence -> Format.pp_print_string ppf "no evidence of leak"
  | Negligible -> Format.pp_print_string ppf "negligible (< 1 mb)"

let pp_result ppf r =
  Format.fprintf ppf "M = %.1f mb, M0 = %.1f mb, n = %d [%a]"
    (Mi.bits_to_millibits r.m) (Mi.bits_to_millibits r.m0) r.n pp_verdict
    r.verdict
