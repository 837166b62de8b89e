(* Benchmark-regression harness (tpsim bench).

   Runs a small fixed suite of simulator workloads — covert-channel
   collections and a Splash solo run — as independent trials, once
   sequentially (-j 1) and once on the parallel pool, and reports
   throughput (simulated cycles/s, memory accesses/s), wall clock,
   speedup and max RSS as a machine-readable JSON document.

   Two properties make the numbers trustworthy:

   - every trial returns a digest of its simulation output, and the
     sequential and parallel digests must be bit-identical — the run
     fails otherwise, so a reported speedup can never come from
     computing something different;
   - throughput is measured in simulator work units (cycles, accesses
     from the microarchitectural counters), so a regression gate on
     them tracks the simulator hot path rather than host noise.

   The [--baseline] gate compares accesses/s against a previously
   emitted JSON file and fails on a relative drop beyond [max_regress]
   percent.  Checked-in baselines should be generous
   (see bench/baseline.json): CI hosts vary widely, the gate is there
   to catch order-of-magnitude hot-path regressions, not 5%% noise. *)

open Tp_kernel

type trial_out = { t_digest : string; t_cycles : int; t_accesses : int }

type exp_result = {
  r_name : string;
  r_platform : string;
  r_trials : int;
  r_wall_seq : float;
  r_wall_par : float;
  r_speedup : float;
  r_pair_speedups : float array;
      (* replay-sweep: live/replayed wall ratio of each leg pair *)
  r_cycles : int;
  r_accesses : int;
  r_cycles_per_sec : float;
  r_accesses_per_sec : float;
  r_deterministic : bool;
}

(* ---- per-trial instrumentation ---------------------------------- *)

let digest_string s = Digest.to_hex (Digest.string s)

let digest_samples (s : Tp_channel.Mi.samples) =
  digest_string
    (Marshal.to_string (s.Tp_channel.Mi.input, s.Tp_channel.Mi.output) [])

(* Per-core "accesses" counters of the trial's own machine.  Each trial
   boots a fresh system whose counters start at zero, so reading them at
   the end gives exactly the trial's traffic — deterministic, unlike a
   delta over the domain-global registry, where a later boot re-registers
   same-named sets. *)
let accesses_of sys =
  List.fold_left
    (fun acc set ->
      List.fold_left
        (fun a (n, v) -> if n = "accesses" then a + v else a)
        acc
        (Tp_obs.Counter.snapshot set))
    0
    (Tp_hw.Machine.counter_sets (System.machine sys))

(* ---- the suite -------------------------------------------------- *)

let bench_samples = function Quality.Quick -> 120 | Quality.Full -> 600
let bench_trials = function Quality.Quick -> 8 | Quality.Full -> 16
let bench_accesses = function Quality.Quick -> 40_000 | Quality.Full -> 200_000

type exp_spec = {
  x_name : string;
  x_run : Quality.t -> seed:int -> trial:int -> Tp_hw.Platform.t -> trial_out;
}

let channel_trial ~scenario ~prepare ~symbols q ~seed ~trial p =
  let rng = Tp_util.Rng.of_trial ~seed ~trial in
  let b = Scenario.boot scenario p in
  let sender, receiver = prepare b in
  let spec =
    {
      (Tp_attacks.Harness.default_spec p) with
      Tp_attacks.Harness.samples = bench_samples q;
      symbols;
    }
  in
  let s = Tp_attacks.Harness.run_pair b ~sender ~receiver spec ~rng in
  {
    t_digest = digest_samples s;
    t_cycles = System.now b.Boot.sys ~core:0;
    t_accesses = accesses_of b.Boot.sys;
  }

let suite =
  [
    {
      x_name = "kernel-chan";
      x_run =
        (fun q ~seed ~trial p ->
          channel_trial ~scenario:Scenario.Coloured_only
            ~prepare:Tp_attacks.Kernel_chan.prepare
            ~symbols:Tp_attacks.Kernel_chan.symbols q ~seed ~trial p);
    };
    {
      x_name = "l1d-chan";
      x_run =
        (fun q ~seed ~trial p ->
          let chan = Tp_attacks.Cache_channels.l1d in
          channel_trial ~scenario:Scenario.Raw
            ~prepare:chan.Tp_attacks.Cache_channels.prepare
            ~symbols:chan.Tp_attacks.Cache_channels.symbols q ~seed ~trial p);
    };
    {
      x_name = "flush-chan";
      x_run =
        (fun q ~seed ~trial p ->
          channel_trial ~scenario:Scenario.Protected_no_pad
            ~prepare:(Tp_attacks.Flush_chan.prepare Tp_attacks.Flush_chan.Offline)
            ~symbols:Tp_attacks.Flush_chan.symbols q ~seed ~trial p);
    };
    {
      x_name = "splash-solo";
      x_run =
        (fun q ~seed ~trial p ->
          let w = List.hd Tp_workloads.Splash.all in
          let b =
            Boot.boot ~colour_percent:100 ~domains:1 ~platform:p
              ~config:Config.raw ()
          in
          let rng = Tp_util.Rng.of_trial ~seed ~trial in
          let cycles =
            Tp_workloads.Splash.run_alone b b.Boot.domains.(0) w
              ~accesses:(bench_accesses q) ~rng
          in
          {
            t_digest = digest_string (string_of_int cycles);
            t_cycles = cycles;
            t_accesses = accesses_of b.Boot.sys;
          });
    };
  ]

(* ---- the replay-sweep experiment --------------------------------- *)

(* Victim-execution-shaped measurement of the record-once/replay-many
   hot path: record one op stream per symbol, snapshot the machine,
   then drive the same schedule of sender slices from the same restored
   state both live (the body re-executes, then idles to the slice
   boundary in interrupt-latency steps) and replayed (Tp_hw.Replay
   re-executes the ops and collapses the idle span).  Every leg's final
   machine-state digest must be bit-identical — a speedup that computes
   something different is a failure, same rule as the parallel suite
   above — and the replay legs must clear the 5x throughput floor the
   sweep hot path is built on.

   One leg lasts tens of milliseconds, so a single live/replayed pair
   is at the mercy of host drift.  The row runs alternating pairs, at
   least [replay_min_pairs] of them and for at least [replay_min_wall]
   seconds, and gates the median pair ratio. *)
let replay_speedup_floor = 5.0
let replay_min_pairs = 5
let replay_min_wall = 1.0

type leg = { l_digest : string; l_cycles : int; l_accesses : int; l_wall : float }

let replay_sweep_exp q p =
  let module H = Tp_attacks.Harness in
  let b = Scenario.boot Scenario.Raw p in
  let chan = Tp_attacks.Cache_channels.tlb in
  let sender, _receiver = chan.Tp_attacks.Cache_channels.prepare b in
  let symbols = chan.Tp_attacks.Cache_channels.symbols in
  let slice_cycles = (H.default_spec p).H.slice_cycles in
  let sys = b.Boot.sys in
  let m = System.machine sys in
  let streams = Array.init symbols (fun _ -> Tp_hw.Replay.create ()) in
  let mode = ref `Nop in
  let body ctx =
    match !mode with
    | `Nop -> ()
    | `Record s ->
        Uctx.set_recorder ctx (Some streams.(s));
        sender ctx s
    | `Live s -> sender ctx s
    | `Replay s ->
        if not (Uctx.replay ctx streams.(s)) then
          failwith "tpsim bench: replay-sweep: replay refused a complete stream"
  in
  ignore (Boot.spawn b b.Boot.domains.(0) body);
  let slice md =
    mode := md;
    Exec.run_slices sys ~core:0 ~slice_cycles ~slices:1 ()
  in
  for s = 0 to symbols - 1 do
    slice (`Record s)
  done;
  Array.iter
    (fun r ->
      if not (Tp_hw.Replay.complete r) then
        failwith "tpsim bench: replay-sweep: recording came back incomplete")
    streams;
  let snap = Tp_hw.Machine.snapshot m in
  let rounds = 4 * bench_trials q in
  let leg md =
    Tp_hw.Machine.restore m snap;
    let c0 = System.now sys ~core:0 in
    let a0 = accesses_of sys in
    let t0 = Unix.gettimeofday () in
    for i = 0 to (rounds * symbols) - 1 do
      slice (md (i mod symbols))
    done;
    let l_wall = Unix.gettimeofday () -. t0 in
    {
      l_digest = Tp_hw.Machine.state_digest m;
      l_cycles = System.now sys ~core:0 - c0;
      l_accesses = accesses_of sys - a0;
      l_wall;
    }
  in
  let t_start = Unix.gettimeofday () in
  let rec run_pairs acc n =
    if
      n >= replay_min_pairs
      && Unix.gettimeofday () -. t_start >= replay_min_wall
    then List.rev acc
    else
      let live = leg (fun s -> `Live s) in
      let rep = leg (fun s -> `Replay s) in
      run_pairs ((live, rep) :: acc) (n + 1)
  in
  let pairs = run_pairs [] 0 in
  let lives = List.map fst pairs and reps = List.map snd pairs in
  let total f legs = List.fold_left (fun a l -> a + f l) 0 legs in
  let wall legs = List.fold_left (fun a l -> a +. l.l_wall) 0.0 legs in
  let ratios =
    Array.of_list
      (List.map
         (fun (live, rep) ->
           if rep.l_wall > 0.0 then live.l_wall /. rep.l_wall else 1.0)
         pairs)
  in
  let digest = (List.hd lives).l_digest in
  let wall_rep = wall reps in
  let cycles = total (fun l -> l.l_cycles) reps in
  let accesses = total (fun l -> l.l_accesses) reps in
  let per denom v = if denom > 0.0 then float_of_int v /. denom else 0.0 in
  {
    r_name = "replay-sweep";
    r_platform = p.Tp_hw.Platform.name;
    r_trials = List.length reps * rounds * symbols;
    r_wall_seq = wall lives;
    r_wall_par = wall_rep;
    r_speedup = Tp_util.Stats.median ratios;
    r_pair_speedups = ratios;
    r_cycles = cycles;
    r_accesses = accesses;
    r_cycles_per_sec = per wall_rep cycles;
    r_accesses_per_sec = per wall_rep accesses;
    r_deterministic =
      List.for_all (fun l -> l.l_digest = digest) (lives @ reps);
  }

(* ---- running ---------------------------------------------------- *)

let time f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

let run_exp q ~seed ~jobs p x =
  let n = bench_trials q in
  let trial i = x.x_run q ~seed ~trial:i p in
  let seq, wall_seq = time (fun () -> Tp_par.Pool.run ~jobs:1 n trial) in
  let par, wall_par = time (fun () -> Tp_par.Pool.run ~jobs n trial) in
  let det = seq = par in
  let cycles = Array.fold_left (fun a t -> a + t.t_cycles) 0 par in
  let accesses = Array.fold_left (fun a t -> a + t.t_accesses) 0 par in
  let per denom v = if denom > 0.0 then float_of_int v /. denom else 0.0 in
  {
    r_name = x.x_name;
    r_platform = p.Tp_hw.Platform.name;
    r_trials = n;
    r_wall_seq = wall_seq;
    r_wall_par = wall_par;
    r_speedup = (if wall_par > 0.0 then wall_seq /. wall_par else 1.0);
    r_pair_speedups = [||];
    r_cycles = cycles;
    r_accesses = accesses;
    r_cycles_per_sec = per wall_par cycles;
    r_accesses_per_sec = per wall_par accesses;
    r_deterministic = det;
  }

let max_rss_kib () =
  try
    let ic = open_in "/proc/self/status" in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rss = ref 0 in
        (try
           while true do
             let line = input_line ic in
             if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
               Scanf.sscanf
                 (String.sub line 6 (String.length line - 6))
                 " %d" (fun v -> rss := v)
           done
         with End_of_file -> ());
        !rss)
  with Sys_error _ -> 0

(* ---- JSON out --------------------------------------------------- *)

let json_of_results ~jobs ~quality results =
  let b = Buffer.create 2048 in
  Buffer.add_string b
    (Printf.sprintf
       "{\n  \"schema\": \"tpsim-bench/1\",\n  \"jobs\": %d,\n  \"quality\": \
        \"%s\",\n  \"max_rss_kib\": %d,\n  \"experiments\": [\n"
       jobs quality (max_rss_kib ()));
  List.iteri
    (fun i r ->
      Buffer.add_string b
        (Printf.sprintf
           "    {\"name\": \"%s\", \"platform\": \"%s\", \"trials\": %d,\n\
           \     \"wall_s_seq\": %.6f, \"wall_s\": %.6f, \"speedup\": %.3f,\n\
           \     \"cycles\": %d, \"accesses\": %d,\n\
           \     \"cycles_per_sec\": %.1f, \"accesses_per_sec\": %.1f,\n\
           \     \"deterministic\": %b}%s\n"
           r.r_name r.r_platform r.r_trials r.r_wall_seq r.r_wall_par
           r.r_speedup r.r_cycles r.r_accesses r.r_cycles_per_sec
           r.r_accesses_per_sec r.r_deterministic
           (if i = List.length results - 1 then "" else ",")))
    results;
  Buffer.add_string b "  ]\n}\n";
  Buffer.contents b

(* The baseline file is read back with the shared minimal JSON reader
   (Tp_util.Json, which started life here). *)

module Json = Tp_util.Json

(* ---- baseline gate ---------------------------------------------- *)

type regression = {
  g_name : string;
  g_platform : string;
  g_current : float;
  g_baseline : float;
  g_drop_pct : float;
}

(* Allowed accesses/s drop against the baseline, percent. *)
let max_regress = 25.0

let check_baseline ~baseline results =
  let base_exps =
    match Json.member "experiments" baseline with
    | Some (Json.Arr l) -> l
    | _ -> []
  in
  let lookup name platform =
    List.find_map
      (fun e ->
        match
          ( Json.member "name" e,
            Json.member "platform" e,
            Json.member "accesses_per_sec" e )
        with
        | Some (Json.Str n), Some (Json.Str p), Some (Json.Num v)
          when n = name && p = platform ->
            Some v
        | _ -> None)
      base_exps
  in
  List.filter_map
    (fun r ->
      match lookup r.r_name r.r_platform with
      | None -> None
      | Some base when base <= 0.0 -> None
      | Some base ->
          let drop = 100.0 *. (1.0 -. (r.r_accesses_per_sec /. base)) in
          if drop > max_regress then
            Some
              {
                g_name = r.r_name;
                g_platform = r.r_platform;
                g_current = r.r_accesses_per_sec;
                g_baseline = base;
                g_drop_pct = drop;
              }
          else None)
    results

(* ---- entry point ------------------------------------------------ *)

let quality_name = function Quality.Quick -> "quick" | Quality.Full -> "full"

let run q ~seed ~jobs ~platforms ~json_out ~baseline () =
  (* Throughput counts simulator work units, so the counters must be
     live; toggled here, outside any parallel region (Tp_obs.Ctl). *)
  let counters_were_on = Tp_obs.Ctl.counters_on () in
  Tp_obs.Ctl.set_counters true;
  let results =
    List.concat_map
      (fun p ->
        List.map (fun x -> run_exp q ~seed ~jobs p x) suite
        @ [ replay_sweep_exp q p ])
      platforms
  in
  if not counters_were_on then Tp_obs.Ctl.set_counters false;
  Format.printf "tpsim bench: %d jobs, quality %s, seed %d@." jobs
    (quality_name q) seed;
  List.iter
    (fun r ->
      Format.printf
        "  %-12s %-8s %4d trials  %7.3fs seq  %7.3fs par  %5.2fx  %10.0f \
         acc/s  %s@."
        r.r_name r.r_platform r.r_trials r.r_wall_seq r.r_wall_par r.r_speedup
        r.r_accesses_per_sec
        (if r.r_deterministic then "bit-identical" else "MISMATCH"))
    results;
  List.iter
    (fun r ->
      if r.r_pair_speedups <> [||] then
        Format.printf "  %-12s %-8s pairs: %s  (median %.2fx, floor %.1fx)@."
          r.r_name r.r_platform
          (String.concat " "
             (Array.to_list
                (Array.map (Printf.sprintf "%.2fx") r.r_pair_speedups)))
          r.r_speedup replay_speedup_floor)
    results;
  let nondet = List.filter (fun r -> not r.r_deterministic) results in
  List.iter
    (fun r ->
      if r.r_name = "replay-sweep" then
        Printf.eprintf
          "tpsim bench: FAIL %s/%s: replayed machine state differs from live \
           execution\n\
           %!"
          r.r_name r.r_platform
      else
        Printf.eprintf
          "tpsim bench: FAIL %s/%s: parallel output differs from sequential\n%!"
          r.r_name r.r_platform)
    nondet;
  (* The sweep hot path exists to buy this factor; losing it is a
     regression even if absolute throughput still clears the baseline. *)
  let slow_replay =
    List.filter
      (fun r ->
        r.r_name = "replay-sweep" && r.r_speedup < replay_speedup_floor)
      results
  in
  List.iter
    (fun r ->
      Printf.eprintf
        "tpsim bench: FAIL %s/%s: median replay speedup %.2fx below the \
         %.0fx floor\n%!"
        r.r_name r.r_platform r.r_speedup replay_speedup_floor)
    slow_replay;
  (match json_out with
  | None -> ()
  | Some f ->
      let oc = open_out f in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          output_string oc
            (json_of_results ~jobs ~quality:(quality_name q) results));
      Printf.eprintf "tpsim bench: wrote %s\n%!" f);
  let regressions =
    match baseline with
    | None -> []
    | Some f -> (
        match
          let ic = open_in f in
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () -> Json.parse (In_channel.input_all ic))
        with
        | j -> check_baseline ~baseline:j results
        | exception (Sys_error msg | Json.Bad msg) ->
            Printf.eprintf "tpsim bench: cannot read baseline %s: %s\n%!" f msg;
            [])
  in
  List.iter
    (fun g ->
      Printf.eprintf
        "tpsim bench: REGRESSION %s/%s: %.0f accesses/s vs baseline %.0f \
         (-%.1f%% > %.1f%% allowed)\n%!"
        g.g_name g.g_platform g.g_current g.g_baseline g.g_drop_pct max_regress)
    regressions;
  if nondet <> [] || slow_replay <> [] || regressions <> [] then 1 else 0
