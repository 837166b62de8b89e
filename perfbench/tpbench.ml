(* The repository benchmark's worker.  One invocation is one pass over a
   workload in a fresh process with a fresh store; perfbench/run.py
   builds this executable, runs the passes and prints the metrics.

     tpbench.exe setup                       time store open + code rev
     tpbench.exe pass   W SEED TRACE         one pass (TRACE 0 or 1)
     tpbench.exe golden W SEED               print the golden lines

   Untraced sweep passes go through Tp_serve.Engine.run_job, the path
   service users wait on.  Traced passes re-drive the same cells through
   the public calls Engine.compute_cell is made of, with a host-clock
   span around each call, and must reproduce the untraced outputs
   exactly. *)

module Engine = Tp_serve.Engine
module Protocol = Tp_serve.Protocol
module Store = Tp_store.Store
module Scenario = Tp_core.Scenario
module Harness = Tp_attacks.Harness
module Cc = Tp_attacks.Cache_channels
module Counter = Tp_obs.Counter
module Machine = Tp_hw.Machine
module Replay = Tp_hw.Replay
open Tp_kernel

let out_dir = ".bench_out"
let golden_dir = Filename.concat "perfbench" "golden"
let now = Span.now

let platforms =
  [ ("haswell", Tp_hw.Platform.haswell); ("sabre", Tp_hw.Platform.sabre) ]

(* ---- workloads --------------------------------------------------- *)

type workload = Sweep_replay | Sweep_kernel | Timeshare_splash

let workloads =
  [
    ("sweep-replay", Sweep_replay);
    ("sweep-kernel", Sweep_kernel);
    ("timeshare-splash", Timeshare_splash);
  ]

(* Engine slug of a Table 3 channel ("L1-D" -> "l1d"). *)
let channel_slug (ch : Cc.t) =
  String.lowercase_ascii (String.concat "" (String.split_on_char '-' ch.Cc.name))

(* One job per platform, submitted one after the other: a closed-loop
   batch client with one job outstanding. *)
let jobs w ~seed =
  let job slug ~configs ~channels =
    Protocol.job ~id:(slug ^ "-" ^ String.concat "+" configs) ~platforms:[ slug ]
      ~configs ~channels ~seed ()
  in
  match w with
  | Sweep_replay ->
      List.map
        (fun (slug, p) ->
          job slug ~configs:[ "raw"; "protected" ]
            ~channels:(List.map channel_slug (Cc.all p)))
        platforms
  | Sweep_kernel ->
      List.map
        (fun (slug, _) ->
          job slug ~configs:[ "coloured-only"; "protected" ] ~channels:[ "kernel" ])
        platforms
  | Timeshare_splash -> []

let cells_of j =
  match Engine.cells_of_job j with
  | Ok cs -> cs
  | Error e -> failwith ("invalid benchmark job: " ^ e)

let cell_id (c : Engine.cell) =
  Printf.sprintf "%s/%s/%s/%d" c.Engine.cl_platform c.Engine.cl_config
    c.Engine.cl_channel c.Engine.cl_trial

(* Table 8's time-shared Splash-2 runs: a subset covering the
   streaming, irregular, blocked and strided access patterns. *)
let splash_programs = [ "fft"; "barnes"; "ocean"; "lu" ]

let splash_configs p =
  let pad_cycles = Tp_hw.Platform.us_to_cycles p (Config.pad_us p) in
  [
    ("raw", Config.raw);
    ("no-pad", { (Config.protected_ p) with Config.pad_cycles = 0 });
    ("pad", { (Config.protected_ p) with Config.pad_cycles });
  ]

type splash_unit = {
  u_platform : string;
  u_plat : Tp_hw.Platform.t;
  u_program : Tp_workloads.Splash.t;
  u_config : string;
  u_cfg : Config.t;
}

let splash_units () =
  List.concat_map
    (fun (slug, p) ->
      List.concat_map
        (fun name ->
          let w = Option.get (Tp_workloads.Splash.by_name name) in
          List.map
            (fun (cname, cfg) ->
              { u_platform = slug; u_plat = p; u_program = w; u_config = cname; u_cfg = cfg })
            (splash_configs p))
        splash_programs)
    platforms

let unit_id u =
  Printf.sprintf "%s/%s/%s" u.u_platform u.u_program.Tp_workloads.Splash.name
    u.u_config

(* ---- simulated counters ------------------------------------------ *)

type sim = {
  acc : int;
  l1d_miss : int;
  llc_miss : int;
  walks : int;
  pf_lines : int;
  switches : int;
  switch_cycles : int;
}

let sim_zero =
  { acc = 0; l1d_miss = 0; llc_miss = 0; walks = 0; pf_lines = 0; switches = 0; switch_cycles = 0 }

let sim_add a b =
  {
    acc = a.acc + b.acc;
    l1d_miss = a.l1d_miss + b.l1d_miss;
    llc_miss = a.llc_miss + b.llc_miss;
    walks = a.walks + b.walks;
    pf_lines = a.pf_lines + b.pf_lines;
    switches = a.switches + b.switches;
    switch_cycles = a.switch_cycles + b.switch_cycles;
  }

let sim_line s =
  Printf.sprintf "acc=%d l1d_miss=%d llc_miss=%d walks=%d pf=%d sw=%d swc=%d" s.acc
    s.l1d_miss s.llc_miss s.walks s.pf_lines s.switches s.switch_cycles

let sim_of_line l =
  try
    Scanf.sscanf l "acc=%d l1d_miss=%d llc_miss=%d walks=%d pf=%d sw=%d swc=%d"
      (fun acc l1d_miss llc_miss walks pf_lines switches switch_cycles ->
        Some { acc; l1d_miss; llc_miss; walks; pf_lines; switches; switch_cycles })
  with Scanf.Scan_failure _ | End_of_file | Failure _ -> None

let machine_sim m =
  List.fold_left
    (fun s set ->
      let name = Counter.set_name set and snap = Counter.snapshot set in
      let v k = Option.value ~default:0 (List.assoc_opt k snap) in
      if Filename.check_suffix name ".core" then
        {
          s with
          acc = s.acc + v "accesses";
          walks = s.walks + v "tlb_walks";
          pf_lines = s.pf_lines + v "prefetch_lines";
        }
      else if Filename.check_suffix name ".l1d" then
        { s with l1d_miss = s.l1d_miss + v "misses" }
      else if name = "llc" then { s with llc_miss = s.llc_miss + v "misses" }
      else s)
    sim_zero (Machine.counter_sets m)

(* Counters of one unit of work: every machine it booted plus the
   process-wide kernel switch set, reset at the start of the unit. *)
let unit_machines : Machine.t list ref = ref []

let begin_unit () =
  unit_machines := [];
  Counter.reset (Domain_switch.counters ())

let note_boot (b : Boot.booted) =
  unit_machines := System.machine b.Boot.sys :: !unit_machines;
  b

let end_unit () =
  let ks = Counter.snapshot (Domain_switch.counters ()) in
  let v k = Option.value ~default:0 (List.assoc_opt k ks) in
  List.fold_left
    (fun s m -> sim_add s (machine_sim m))
    {
      sim_zero with
      switches = v "switches";
      switch_cycles = v "flush_cycles" + v "pad_wait_cycles";
    }
    !unit_machines

(* ---- host speed -------------------------------------------------- *)

(* A fixed set-associative cache model, independent of the code under
   test.  The host's speed drifts by up to ~1.5x over minutes on shared
   VMs; this kernel, run between the cells of a pass, slows down with
   it, so a pass's mean calibration time measures how fast the host ran
   during that pass. *)
let calib_sets = 8192
let calib_ways = 16
let calib_tags = Array.make (calib_sets * calib_ways) (-1)
let calib_ages = Array.make (calib_sets * calib_ways) 0
let calib_samples = ref []

let calibrate () =
  let t0 = now () in
  let x = ref 7 in
  for i = 1 to 300_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let addr = if i land 3 = 0 then !x land 0x1ffffff else i * 64 land 0x3fffff in
    let line = addr lsr 6 in
    let base = line land (calib_sets - 1) * calib_ways in
    let hit = ref (-1) and victim = ref base in
    for w = base to base + calib_ways - 1 do
      if calib_tags.(w) = line then hit := w;
      if calib_ages.(w) < calib_ages.(!victim) then victim := w
    done;
    let slot = if !hit >= 0 then !hit else !victim in
    calib_tags.(slot) <- line;
    calib_ages.(slot) <- i
  done;
  calib_samples := (now () -. t0) :: !calib_samples

let calib_total () = List.fold_left ( +. ) 0.0 !calib_samples

let calib_mean () =
  match !calib_samples with
  | [] -> 0.0
  | s -> calib_total () /. float_of_int (List.length s)

(* Runs [f] as a timed window with calibration samples at both ends;
   [f] may take more samples.  Returns [f]'s result and the window's
   length without the calibration time inside it. *)
let timed_window f =
  calibrate ();
  let c0 = calib_total () in
  let t0 = now () in
  let v = f () in
  let window = now () -. t0 -. (calib_total () -. c0) in
  calibrate ();
  (v, window)

(* ---- goldens ----------------------------------------------------- *)

(* perfbench/golden/<workload>.txt: "<job seed>\t<unit>\t<result>\t<sim>"
   per line. *)
let load_golden wname =
  let tbl = Hashtbl.create 256 in
  let path = Filename.concat golden_dir (wname ^ ".txt") in
  if Sys.file_exists path then begin
    let ic = open_in path in
    (try
       while true do
         match String.split_on_char '\t' (input_line ic) with
         | [ seed; id; result; sim ] ->
             Hashtbl.replace tbl (int_of_string seed, id) (result, sim_of_line sim)
         | _ -> ()
       done
     with End_of_file -> ());
    close_in ic
  end;
  tbl

let golden_seeds = 6

(* The benchmark seed picks the job seed from the golden pool, so the
   outputs of every seed can be checked exactly. *)
let job_seed_of seed = 1 + (abs seed mod golden_seeds)

(* ---- results ----------------------------------------------------- *)

(* Deterministic fields of a trial.  The code rev and store key are
   left out: both embed the executable hash, which changes on every
   rebuild. *)
let trial_line (t : Protocol.trial) =
  Printf.sprintf
    "status=%s verdict=%s m=%h m0=%h n=%d cert=%d kcert=%d kd=%s kcd=%s kdd=%s \
     reason=%s rec=%d ckpt=%d retries=%d"
    (Protocol.status_name t.Protocol.t_status)
    t.Protocol.t_verdict t.Protocol.t_mi_bits t.Protocol.t_m0_bits t.Protocol.t_n
    t.Protocol.t_cert_bits t.Protocol.t_kcert_bits t.Protocol.t_kcert_digest
    t.Protocol.t_kcert_clone_digest t.Protocol.t_kcert_destroy_digest
    (Option.value ~default:"-" t.Protocol.t_degraded_reason)
    t.Protocol.t_recovered_faults t.Protocol.t_checkpoints t.Protocol.t_retries

type outcome = {
  o_id : string;
  o_ok : bool;  (** not failed *)
  o_result : string;
  o_sim : sim option;  (** counters, traced passes only *)
}

(* ---- engine path (untraced) -------------------------------------- *)

(* One pass's measurements; the untraced fields are zero in traced
   passes and the layers empty in untraced ones. *)
type pass = {
  setup_s : float;
  window_s : float;
  outcomes : outcome list;
  retries : int;
  failed_attempt_s : float;
  cached_cell_us : float;
  minor_words : float;
  major_collections : int;
  calib_s : float;  (** mean calibration time, untraced passes only *)
  layers : (string * float) list;  (** traced passes only *)
}

let open_store () =
  let dir =
    Filename.concat out_dir
      (Printf.sprintf "store-%d-%.0f" (Unix.getpid ()) (now () *. 1e6))
  in
  (dir, Store.open_ ~dir)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let setup () =
  let t0 = now () in
  let dir, store = open_store () in
  let rev = Engine.code_rev () in
  let dt = now () -. t0 in
  (dir, store, rev, dt)

let engine_pass ~store ~rev ~setup_s js =
  let attempts = ref [] in
  let compute j c =
    let t0 = now () in
    match Engine.compute_cell j c with
    | r ->
        attempts := (Result.is_ok r, now () -. t0) :: !attempts;
        calibrate ();
        r
    | exception e ->
        attempts := (false, now () -. t0) :: !attempts;
        raise e
  in
  let run j =
    match Engine.run_job ~store ~code_rev:rev ~jobs:1 ~compute j with
    | Ok r -> r
    | Error e -> failwith ("job refused: " ^ e)
  in
  let g0 = Gc.quick_stat () in
  let results, window_s = timed_window (fun () -> List.map run js) in
  let g1 = Gc.quick_stat () in
  (* Resubmitting each stored cell as a one-cell job is answered from
     the store: the cached-cell cost.  Failed cells are not stored. *)
  let stored =
    List.concat_map
      (fun r ->
        List.filter (fun t -> t.Protocol.t_status <> Protocol.Failed) r.Protocol.r_trials)
      results
  in
  let tc = now () in
  let cached =
    List.fold_left
      (fun a (t : Protocol.trial) ->
        let j = List.hd js in
        let r =
          run
            (Protocol.job ~platforms:[ t.Protocol.t_platform ] ~configs:[ t.Protocol.t_config ]
               ~channels:[ t.Protocol.t_channel ] ~seed:j.Protocol.j_seed
               ~samples:j.Protocol.j_samples ())
        in
        a + r.Protocol.r_cached)
      0 stored
  in
  let cached_s = now () -. tc in
  if cached <> List.length stored then failwith "a stored cell was not answered from the store";
  let outcomes =
    List.concat_map
      (fun r ->
        List.map
          (fun (t : Protocol.trial) ->
            {
              o_id =
                Printf.sprintf "%s/%s/%s/%d" t.Protocol.t_platform t.Protocol.t_config
                  t.Protocol.t_channel t.Protocol.t_trial;
              o_ok = t.Protocol.t_status <> Protocol.Failed;
              o_result = trial_line t;
              o_sim = None;
            })
          r.Protocol.r_trials)
      results
  in
  {
    setup_s;
    window_s;
    outcomes;
    retries = List.fold_left (fun a r -> a + r.Protocol.r_retried) 0 results;
    failed_attempt_s =
      List.fold_left (fun a (ok, s) -> if ok then a else a +. s) 0.0 !attempts;
    cached_cell_us = (if cached = 0 then 0.0 else cached_s *. 1e6 /. float_of_int cached);
    minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
    calib_s = calib_mean ();
    layers = [];
  }

(* ---- re-driven cells (traced) ------------------------------------ *)

(* What Engine.compute_cell does, one public call at a time. *)

let replayable_channels = [ "l1d"; "l1i"; "tlb"; "btb"; "bhb"; "l2" ]

let cell_rng (j : Protocol.job) (c : Engine.cell) =
  let tag =
    String.concat "\x00"
      [
        "tpsim-cell-rng";
        c.Engine.cl_platform;
        c.Engine.cl_config;
        c.Engine.cl_channel;
        string_of_int j.Protocol.j_seed;
        string_of_int c.Engine.cl_trial;
      ]
  in
  Tp_util.Rng.create ~seed:(Int64.to_int (String.get_int64_le (Digest.string tag) 0))

let prepare (c : Engine.cell) b =
  match c.Engine.cl_channel with
  | "kernel" -> (Tp_attacks.Kernel_chan.prepare b, Tp_attacks.Kernel_chan.symbols)
  | slug ->
      let ch = List.find (fun ch -> channel_slug ch = slug) (Cc.all c.Engine.cl_plat) in
      (ch.Cc.prepare b, ch.Cc.symbols)

(* Sender streams for the hw probe: (platform, asid, LLC ways, stream). *)
type probe_stream = Tp_hw.Platform.t * int * int * Replay.t

let probe_streams : probe_stream list ref = ref []

let keep_streams (b : Boot.booted) streams =
  let dom = b.Boot.domains.(0) in
  let asid = dom.Boot.dom_vspace.Types.vs_asid in
  let ways = System.cat_mask_of_domain b.Boot.sys dom.Boot.dom_id in
  Array.iter
    (fun r ->
      probe_streams := (System.platform b.Boot.sys, asid, ways, r) :: !probe_streams)
    streams

let boot_cell (c : Engine.cell) =
  note_boot (Span.with_ "boot" (fun () -> Scenario.boot c.Engine.cl_kind c.Engine.cl_plat))

let record_streams (c : Engine.cell) =
  let b = boot_cell c in
  let (sender, _), symbols = Span.with_ "channel.prepare" (fun () -> prepare c b) in
  let streams =
    Span.with_ "harness.record_streams" (fun () ->
        Harness.record_streams b ~sender ~symbols
          ~slice_cycles:(Harness.default_spec c.Engine.cl_plat).Harness.slice_cycles)
  in
  (b, streams)

let live_sends = ref 0
let replayed_slices = ref 0

let verdict_name = function
  | Tp_channel.Leakage.Leak -> "leak"
  | Tp_channel.Leakage.No_evidence -> "no-evidence"
  | Tp_channel.Leakage.Negligible -> "negligible"

let compute_attempt (j : Protocol.job) (c : Engine.cell) ~seed_streams ~rev =
  let b = boot_cell c in
  let (sender, receiver), symbols = Span.with_ "channel.prepare" (fun () -> prepare c b) in
  let sender ctx s =
    incr live_sends;
    Span.with_ "guest.sender" (fun () -> sender ctx s)
  in
  let receiver ctx =
    Span.with_ "guest.receiver" (fun () -> receiver ctx)
  in
  let spec =
    {
      (Harness.default_spec c.Engine.cl_plat) with
      Harness.samples = j.Protocol.j_samples;
      symbols;
      budget = Harness.no_budget;
      replay = j.Protocol.j_replay;
      replay_seed = seed_streams;
    }
  in
  let rng = cell_rng j c in
  (* Replayed sender slices never call [sender]; each crosses the
     replay-step fault point once, which [Fault.trace] counts. *)
  let r, crossings =
    Span.with_ "harness.collect" (fun () ->
        Tp_fault.Fault.trace (fun () ->
            Harness.run_pair_result b ~sender ~receiver spec ~rng))
  in
  List.iter
    (fun (point, _) -> if point = Replay.point_step then incr replayed_slices)
    crossings;
  (* The same static analyses the harness runs at the end of every
     collection, timed on their own; they must agree with its result. *)
  let cert =
    Span.with_ "analysis.static" (fun () ->
        ignore (Tp_analysis.Lint.check_static b);
        Tp_analysis.Certify.certify_static b)
  in
  if Tp_analysis.Certify.total_bits cert <> Tp_analysis.Certify.total_bits r.Harness.cert
  then failwith "static certificate differs from the harness's own";
  let n = Array.length r.Harness.data.Tp_channel.Mi.input in
  if n = 0 then
    Error
      (Printf.sprintf "no samples collected%s"
         (match r.Harness.degraded_reason with Some why -> ": " ^ why | None -> ""))
  else
    let leak = Span.with_ "leakage.test" (fun () -> Tp_channel.Leakage.test ~rng r.Harness.data) in
    let cfg = Scenario.config c.Engine.cl_kind c.Engine.cl_plat in
    let ks, kc, kd =
      Span.with_ "analysis.kcert" (fun () ->
          let k path =
            Tp_analysis.Kcert.certify ~path c.Engine.cl_plat ~config_name:c.Engine.cl_config cfg
          in
          (k Tp_analysis.Kcert.Switch, k Tp_analysis.Kcert.Clone, k Tp_analysis.Kcert.Destroy))
    in
    Ok
      {
        Protocol.t_platform = c.Engine.cl_platform;
        t_config = c.Engine.cl_config;
        t_channel = c.Engine.cl_channel;
        t_trial = c.Engine.cl_trial;
        t_key = "";
        t_status = (if r.Harness.degraded then Protocol.Degraded else Protocol.Complete);
        t_mi_bits = leak.Tp_channel.Leakage.m;
        t_m0_bits = leak.Tp_channel.Leakage.m0;
        t_verdict = verdict_name leak.Tp_channel.Leakage.verdict;
        t_n = n;
        t_cert_bits = Tp_analysis.Certify.total_bits r.Harness.cert;
        t_kcert_bits = Tp_analysis.Kcert.total_bits ks;
        t_kcert_digest = Tp_analysis.Kcert.digest ks;
        t_kcert_clone_digest = Tp_analysis.Kcert.digest kc;
        t_kcert_destroy_digest = Tp_analysis.Kcert.digest kd;
        t_code_rev = rev;
        t_degraded_reason = r.Harness.degraded_reason;
        t_recovered_faults = r.Harness.recovered_faults;
        t_checkpoints = r.Harness.checkpoints;
        t_retries = 0;
        t_cached = false;
      }

let failed_line (c : Engine.cell) ~retries why =
  trial_line
    {
      Protocol.t_platform = c.Engine.cl_platform;
      t_config = c.Engine.cl_config;
      t_channel = c.Engine.cl_channel;
      t_trial = c.Engine.cl_trial;
      t_key = "";
      t_status = Protocol.Failed;
      t_mi_bits = 0.0;
      t_m0_bits = 0.0;
      t_verdict = "no-data";
      t_n = 0;
      t_cert_bits = 0;
      t_kcert_bits = 0;
      t_kcert_digest = "";
      t_kcert_clone_digest = "";
      t_kcert_destroy_digest = "";
      t_code_rev = "";
      t_degraded_reason = Some why;
      t_recovered_faults = 0;
      t_checkpoints = 0;
      t_retries = retries;
      t_cached = false;
    }

let streams_digest = function
  | None -> "no-replay"
  | Some streams ->
      "replay:"
      ^ Digest.to_hex
          (Digest.string
             (String.concat "," (Array.to_list (Array.map Replay.digest streams))))

let redrive_cell ~store ~rev (j : Protocol.job) (c : Engine.cell) =
  begin_unit ();
  let result =
    Span.with_ "engine.cell" (fun () ->
        let seed_streams =
          if j.Protocol.j_replay && List.mem c.Engine.cl_channel replayable_channels
          then
            Span.with_ "engine.stream_record" (fun () ->
                match record_streams c with
                | b, streams when Array.for_all Replay.complete streams ->
                    keep_streams b streams;
                    Some streams
                | _ -> None
                | exception _ -> None)
          else None
        in
        let key =
          Store.key ~code_rev:rev
            ~parts:
              [
                "tpsim-store/5";
                c.Engine.cl_platform;
                c.Engine.cl_config;
                c.Engine.cl_channel;
                string_of_int j.Protocol.j_seed;
                string_of_int j.Protocol.j_samples;
                "unbounded";
                streams_digest seed_streams;
                string_of_int c.Engine.cl_trial;
              ]
        in
        if Span.with_ "store.find" (fun () -> Store.find store key) <> None then
          failwith "fresh store answered a lookup";
        let rec go attempt =
          let outcome =
            match
              Span.with_ "engine.attempt" (fun () ->
                  compute_attempt j c ~seed_streams ~rev)
            with
            | r -> r
            | exception e -> Error ("worker fault: " ^ Printexc.to_string e)
          in
          match outcome with
          | Ok t -> (Ok t, attempt)
          | Error why when attempt >= j.Protocol.j_max_retries -> (Error why, attempt)
          | Error _ ->
              let backoff = j.Protocol.j_retry_backoff_s *. (2.0 ** float_of_int attempt) in
              if backoff > 0.0 then Span.with_ "engine.backoff" (fun () -> Unix.sleepf backoff);
              go (attempt + 1)
        in
        match go 0 with
        | Ok t, retries -> (
            let blob = Protocol.stored_of_trial t in
            Span.with_ "store.put" (fun () -> Store.put store ~key blob);
            match Protocol.trial_of_stored ~key blob with
            | Ok t -> (true, trial_line { t with Protocol.t_cached = false; t_retries = retries })
            | Error why -> (false, failed_line c ~retries ("computed trial unreadable: " ^ why)))
        | Error why, retries -> (false, failed_line c ~retries why))
  in
  let ok, line = result in
  { o_id = cell_id c; o_ok = ok; o_result = line; o_sim = Some (end_unit ()) }

(* ---- time-shared Splash (Table 8) -------------------------------- *)

(* Exp_fig7's time-shared throughput, from the same public calls: the
   program shares core 0 with an idle domain; accesses per cycle over
   12 slice pairs after 4 warm-up pairs, 1 ms slices. *)
let timeshare_slice_us = 1000.0
let warmup_slices = 4
let measured_slices = 12

let splash_run ~seed u =
  begin_unit ();
  let thr =
    Span.with_ "splash.run" (fun () ->
        let b =
          note_boot
            (Span.with_ "boot" (fun () ->
                 Boot.boot ~domains:2 ~platform:u.u_plat ~config:u.u_cfg ()))
        in
        let sys = b.Boot.sys in
        let dom = b.Boot.domains.(0) in
        let pages = u.u_program.Tp_workloads.Splash.ws_kib * 1024 / Tp_hw.Defs.page_size in
        let buf = Boot.alloc_pages b dom ~pages in
        let done_accesses = ref 0 in
        let rng = Tp_util.Rng.create ~seed in
        let body =
          Tp_workloads.Splash.body u.u_program ~buf ~rng ~accesses:done_accesses ()
        in
        ignore (Boot.spawn b dom (fun ctx -> Span.with_ "guest.workload" (fun () -> body ctx)));
        ignore (Boot.spawn b b.Boot.domains.(1) (fun _ -> ()));
        let slice = Tp_hw.Platform.us_to_cycles u.u_plat timeshare_slice_us in
        let run slices =
          Span.with_ "exec.run_slices" (fun () ->
              Exec.run_slices sys ~core:0 ~slice_cycles:slice ~slices ())
        in
        run (2 * warmup_slices);
        let a0 = !done_accesses in
        let t0 = System.now sys ~core:0 in
        run (2 * measured_slices);
        float_of_int (!done_accesses - a0) /. float_of_int (System.now sys ~core:0 - t0))
  in
  {
    o_id = unit_id u;
    o_ok = true;
    o_result = Printf.sprintf "thr=%h" thr;
    o_sim = (if Tp_obs.Ctl.counters_on () then Some (end_unit ()) else None);
  }

(* One slice of each program's own traffic, recorded for the hw probe. *)
let record_splash_streams ~seed =
  List.iter
    (fun (_, p) ->
      List.iter
        (fun name ->
          let w = Option.get (Tp_workloads.Splash.by_name name) in
          let b = Boot.boot ~domains:2 ~platform:p ~config:Config.raw () in
          let buf =
            Boot.alloc_pages b b.Boot.domains.(0)
              ~pages:(w.Tp_workloads.Splash.ws_kib * 1024 / Tp_hw.Defs.page_size)
          in
          let body =
            Tp_workloads.Splash.body w ~buf ~rng:(Tp_util.Rng.create ~seed)
              ~accesses:(ref 0) ()
          in
          keep_streams b
            (Harness.record_streams b
               ~sender:(fun ctx _ -> body ctx)
               ~symbols:1
               ~slice_cycles:(Tp_hw.Platform.us_to_cycles p timeshare_slice_us)))
        splash_programs)
    platforms

(* The kernel-channel sender poisons its recording, but the ops before
   and after the poisoning are still recorded: they are its traffic. *)
let record_kernel_streams js =
  List.iter
    (fun j ->
      List.iter
        (fun c ->
          let b, streams = record_streams c in
          keep_streams b streams)
        (cells_of j))
    js

(* ---- hw probe ---------------------------------------------------- *)

type probe = {
  p_accesses : int;
  p_ops : int;
  p_seconds : float;
  p_words : float;
}

(* Replays the recorded streams on a fresh machine per platform, timed
   per batch (one batch replays every stream of the platform once, from
   empty caches), so each clock read covers milliseconds of work.  A
   separate counted replay gives the number of machine accesses. *)
let hw_probe ~reps =
  let by_plat =
    List.map
      (fun (_, p) ->
        let mine ((q : Tp_hw.Platform.t), _, _, _) = q.name = p.Tp_hw.Platform.name in
        (p, List.filter mine (List.rev !probe_streams)))
      platforms
  in
  List.fold_left
    (fun acc (p, streams) ->
      if streams = [] then acc
      else begin
        let m = Machine.create p in
        let fresh = Machine.snapshot m in
        let replay_all () =
          List.iter
            (fun (_, asid, llc_ways, r) ->
              ignore (Replay.replay m ~core:0 ~asid ~llc_ways ~until:max_int r))
            streams
        in
        let counters = Tp_obs.Ctl.counters_on () in
        Tp_obs.Ctl.set_counters true;
        Machine.restore m fresh;
        replay_all ();
        let accesses = (machine_sim m).acc in
        Tp_obs.Ctl.set_counters false;
        let ops = List.fold_left (fun a (_, _, _, r) -> a + Replay.length r) 0 streams in
        let times = Array.make reps 0.0 and words = Array.make reps 0.0 in
        for i = 0 to reps - 1 do
          Machine.restore m fresh;
          let w0 = Gc.minor_words () in
          let t0 = now () in
          replay_all ();
          times.(i) <- now () -. t0;
          words.(i) <- Gc.minor_words () -. w0
        done;
        Tp_obs.Ctl.set_counters counters;
        let median a =
          let a = Array.copy a in
          Array.sort compare a;
          a.(Array.length a / 2)
        in
        {
          p_accesses = acc.p_accesses + accesses;
          p_ops = acc.p_ops + ops;
          p_seconds = acc.p_seconds +. median times;
          p_words = acc.p_words +. median words;
        }
      end)
    { p_accesses = 0; p_ops = 0; p_seconds = 0.0; p_words = 0.0 }
    by_plat

(* ---- passes ------------------------------------------------------ *)

let peak_rss_mib () =
  try
    let ic = open_in "/proc/self/status" in
    let rec scan () =
      match input_line ic with
      | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb -> kb)
      | _ -> scan ()
    in
    let kb = try scan () with End_of_file -> 0 in
    close_in ic;
    float_of_int kb /. 1024.0
  with Sys_error _ -> 0.0

(* Compare outcomes with the golden lines of [job_seed]; also sums the
   golden simulated accesses (untraced passes count nothing). *)
let check_golden golden ~job_seed outcomes =
  List.fold_left
    (fun (bad, acc) o ->
      match Hashtbl.find_opt golden (job_seed, o.o_id) with
      | Some (result, Some sim) ->
          let sim_ok = match o.o_sim with None -> true | Some s -> s = sim in
          if result = o.o_result && sim_ok then (bad, acc + sim.acc)
          else begin
            Printf.eprintf "mismatch %s\n  got      %s %s\n  expected %s %s\n%!" o.o_id
              o.o_result
              (match o.o_sim with Some s -> sim_line s | None -> "")
              result (sim_line sim);
            (bad + 1, acc + sim.acc)
          end
      | Some (_, None) | None ->
          Printf.eprintf "no golden for seed %d unit %s\n%!" job_seed o.o_id;
          (bad + 1, acc))
    (0, 0) outcomes

let outputs_digest outcomes =
  Digest.to_hex
    (Digest.string
       (String.concat "\n" (List.map (fun o -> o.o_id ^ " " ^ o.o_result) outcomes)))

let untraced_pass w ~job_seed =
  let dir, store, rev, setup_s = setup () in
  let p =
    match w with
    | Sweep_replay | Sweep_kernel -> engine_pass ~store ~rev ~setup_s (jobs w ~seed:job_seed)
    | Timeshare_splash ->
        let g0 = Gc.quick_stat () in
        let outcomes, window_s =
          timed_window (fun () ->
              List.map
                (fun u ->
                  let o = splash_run ~seed:job_seed u in
                  calibrate ();
                  o)
                (splash_units ()))
        in
        let g1 = Gc.quick_stat () in
        {
          setup_s;
          window_s;
          outcomes;
          retries = 0;
          failed_attempt_s = 0.0;
          cached_cell_us = 0.0;
          minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
          major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
          calib_s = calib_mean ();
          layers = [];
        }
  in
  Store.close store;
  rm_rf dir;
  p

let print_self_times window =
  Printf.eprintf "%-24s %10s %10s %8s %14s\n" "span" "total_s" "self_s" "count"
    "self_words";
  List.iter
    (fun (name, l) ->
      Printf.eprintf "%-24s %10.4f %10.4f %8d %14.0f\n" name l.Span.l_total
        l.Span.l_self l.Span.l_count l.Span.l_words)
    (Span.layers ());
  Printf.eprintf "%-24s %10.4f (traced window)\n%!" "" window

let traced_pass w wname ~job_seed =
  Tp_obs.Ctl.set_counters true;
  Span.enabled := true;
  let dir, store, rev, setup_s = setup () in
  live_sends := 0;
  replayed_slices := 0;
  let t0 = now () in
  let outcomes =
    match w with
    | Sweep_replay | Sweep_kernel ->
        let k = ref 0 in
        List.concat_map
          (fun j ->
            Span.current_cell := -1;
            Span.with_ "engine.job" (fun () ->
                List.map
                  (fun c ->
                    Span.current_cell := !k;
                    incr k;
                    redrive_cell ~store ~rev j c)
                  (cells_of j)))
          (jobs w ~seed:job_seed)
    | Timeshare_splash ->
        List.mapi
          (fun i u ->
            Span.current_cell := i;
            splash_run ~seed:job_seed u)
          (splash_units ())
  in
  let window_s = now () -. t0 in
  Span.enabled := false;
  Store.close store;
  rm_rf dir;
  (match w with
  | Sweep_replay -> ()
  | Sweep_kernel -> record_kernel_streams (jobs w ~seed:job_seed)
  | Timeshare_splash -> record_splash_streams ~seed:job_seed);
  let probe = hw_probe ~reps:25 in
  let sim =
    List.fold_left
      (fun a o -> match o.o_sim with Some s -> sim_add a s | None -> a)
      sim_zero outcomes
  in
  let ls = Span.layers () in
  let get name f = match List.assoc_opt name ls with Some l -> f l | None -> 0.0 in
  let total name = get name (fun l -> l.Span.l_total) in
  let self name = get name (fun l -> l.Span.l_self) in
  let words name = get name (fun l -> l.Span.l_words) in
  let mean name scale =
    get name (fun l -> scale *. l.Span.l_total /. float_of_int l.Span.l_count)
  in
  let per a b = if b = 0 then 0.0 else a /. float_of_int b in
  let spans = List.length (Span.all ()) in
  Span.write_chrome (Filename.concat out_dir ("trace-" ^ wname ^ ".json"));
  print_self_times window_s;
  {
    setup_s;
    window_s;
    outcomes;
    retries = 0;
    failed_attempt_s = 0.0;
    cached_cell_us = 0.0;
    minor_words = 0.0;
    major_collections = 0;
    calib_s = 0.0;
    layers =
      [
        ("hw.accesses", float_of_int sim.acc);
        ("hw.l1d_misses", float_of_int sim.l1d_miss);
        ("hw.llc_misses", float_of_int sim.llc_miss);
        ("hw.tlb_walks", float_of_int sim.walks);
        ("hw.prefetch_lines", float_of_int sim.pf_lines);
        ("hw.ns_per_access", per (probe.p_seconds *. 1e9) probe.p_accesses);
        ("hw.words_per_access", per probe.p_words probe.p_accesses);
        ("replay.step_ns", per (probe.p_seconds *. 1e9) probe.p_ops);
        ("replay.step_words", per probe.p_words probe.p_ops);
        ("boot.s", total "boot");
        ("boot.words", words "boot");
        ("kernel.switches", float_of_int sim.switches);
        ("kernel.switch_cycles", float_of_int sim.switch_cycles);
        ("exec.self_s", self "exec.run_slices");
        ("guest.workload_s", total "guest.workload");
        ("harness.collect_s", total "harness.collect");
        ("harness.collect_self_s", self "harness.collect");
        ("guest.sender_s", total "guest.sender");
        ("guest.receiver_s", total "guest.receiver");
        ( "replay.replayed_frac",
          per (float_of_int !replayed_slices) (!replayed_slices + !live_sends) );
        ("leakage.s", total "leakage.test");
        ("leakage.words", words "leakage.test");
        ("analysis.kcert_s", total "analysis.kcert");
        ("analysis.static_s", total "analysis.static");
        ("store.put_s", mean "store.put" 1.0);
        ("store.find_us", mean "store.find" 1e6);
        ("engine.cell_s", mean "engine.cell" 1.0);
        ("engine.stream_record_s", total "engine.stream_record");
        ("trace.accounted_frac", Span.root_time () /. window_s);
        ("trace.spans", float_of_int spans);
      ];
  }

let json_float f = if Float.is_finite f then Printf.sprintf "%.17g" f else "0"

let print_pass wname ~job_seed ~trace p =
  let golden = load_golden wname in
  let mismatches, golden_acc = check_golden golden ~job_seed p.outcomes in
  let fields =
    [
      ("workload", Printf.sprintf "%S" wname);
      ("job_seed", string_of_int job_seed);
      ("trace", string_of_int trace);
      ("setup_s", json_float p.setup_s);
      ("window_s", json_float p.window_s);
      ("cells", string_of_int (List.length p.outcomes));
      ("cells_ok", string_of_int (List.length (List.filter (fun o -> o.o_ok) p.outcomes)));
      ("mismatches", string_of_int mismatches);
      ("golden_accesses", string_of_int golden_acc);
      ("digest", Printf.sprintf "%S" (outputs_digest p.outcomes));
      ("rss_mib", json_float (peak_rss_mib ()));
      ("retries", string_of_int p.retries);
      ("failed_attempt_s", json_float p.failed_attempt_s);
      ("cached_cell_us", json_float p.cached_cell_us);
      ("minor_words", json_float p.minor_words);
      ("major_collections", string_of_int p.major_collections);
      ("calib_s", json_float p.calib_s);
      ( "layers",
        "{"
        ^ String.concat ","
            (List.map (fun (k, v) -> Printf.sprintf "%S:%s" k (json_float v)) p.layers)
        ^ "}" );
    ]
  in
  print_endline
    ("{" ^ String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%S:%s" k v) fields) ^ "}")

(* ---- golden generation ------------------------------------------- *)

(* Prints the golden lines of one job seed after checking that the two
   paths agree: Engine.run_job against the re-driven cells (sweeps), and
   the re-driven Splash runs against Exp_fig7.run_table8 (Table 8). *)
let make_golden w ~job_seed =
  let fail fmt = Printf.ksprintf failwith fmt in
  let traced = traced_pass w "golden" ~job_seed in
  (match w with
  | Sweep_replay | Sweep_kernel ->
      let e = untraced_pass w ~job_seed in
      List.iter2
        (fun a b ->
          if a.o_id <> b.o_id || a.o_result <> b.o_result then
            fail "engine and re-driven cell differ:\n%s %s\n%s %s" a.o_id a.o_result
              b.o_id b.o_result)
        e.outcomes traced.outcomes
  | Timeshare_splash ->
      let thr = Hashtbl.create 32 in
      List.iter
        (fun o -> Scanf.sscanf o.o_result "thr=%h" (fun f -> Hashtbl.replace thr o.o_id f))
        traced.outcomes;
      List.iter
        (fun (slug, p) ->
          let r =
            Tp_core.Exp_fig7.run_table8 ~workloads:splash_programs Tp_core.Quality.Quick
              ~seed:job_seed p
          in
          List.iter
            (fun (row : Tp_core.Exp_fig7.table8_row) ->
              let t c = Hashtbl.find thr (Printf.sprintf "%s/%s/%s" slug row.workload c) in
              let pct v = 100.0 *. ((t "raw" /. v) -. 1.0) in
              if pct (t "no-pad") <> row.no_pad_pct || pct (t "pad") <> row.pad_pct then
                fail "re-driven Table 8 row %s/%s differs from Exp_fig7" slug row.workload)
            r.Tp_core.Exp_fig7.rows)
        platforms);
  List.iter
    (fun o ->
      Printf.printf "%d\t%s\t%s\t%s\n" job_seed o.o_id o.o_result
        (sim_line (Option.get o.o_sim)))
    traced.outcomes

(* ---- main -------------------------------------------------------- *)

let () =
  let usage () =
    prerr_endline
      "usage: tpbench.exe (setup | pass WORKLOAD SEED TRACE | golden WORKLOAD JOB_SEED)";
    exit 2
  in
  let workload name =
    match List.assoc_opt name workloads with Some w -> w | None -> usage ()
  in
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  match Array.to_list Sys.argv |> List.tl with
  | [ "setup" ] ->
      let dir, store, _, dt = setup () in
      Store.close store;
      rm_rf dir;
      Printf.printf "{\"setup_s\":%s}\n" (json_float dt)
  | [ "pass"; wname; seed; trace ] ->
      let w = workload wname in
      let job_seed = job_seed_of (int_of_string seed) in
      let trace = int_of_string trace in
      let p =
        if trace = 0 then untraced_pass w ~job_seed else traced_pass w wname ~job_seed
      in
      print_pass wname ~job_seed ~trace p
  | [ "golden"; wname; job_seed ] ->
      make_golden (workload wname) ~job_seed:(int_of_string job_seed)
  | _ -> usage ()
