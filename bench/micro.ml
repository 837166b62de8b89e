(* Hot-path microbenchmarks (bechamel), in host ns/op and words/op.

   The per-access path — Cache.access_*fast, Tlb.access, Machine.access
   — dominates every experiment's runtime, so this suite pins its cost:
   run it before and after touching lib/hw to see what a change does to
   simulator throughput.  Machine.access is measured on each of its
   paths (L1 hit, L1 miss / L2 hit, prefetching stream, LLC miss with a
   page-table walk), with counters off and on (the off case must stay
   cheap: the hot path hoists the enabled check).  The leakage layer
   (one MI estimate, one full shuffle test) closes the table.

   One bechamel sample runs a batch of [batch] operations, and ns/op is
   the per-sample estimate divided by the batch: timing a single
   nanosecond-scale call per sample measures the clock read instead.
   words/op comes from Gc.minor_words over a separate run of the same
   batches, after warm-up; the per-access rows must read 0.

   Usage: micro.exe [--json FILE]  (haswell geometry)

   --json FILE also writes the table as a tpsim-bench/2 document, the
   layer ledger committed as bench/ledger/BENCH_<rev>.json by every
   change that claims a speedup. *)

open Bechamel
open Toolkit

let p = Tp_hw.Platform.haswell
let line = p.Tp_hw.Platform.line

(* An operation: [run n] performs the next [n] ops of its stream. *)
type op = { name : string; batch : int; run : int -> unit }

let make_cache () = Tp_hw.Cache.create ~name:"bench" p.Tp_hw.Platform.l1d

let cache_op ~name ~bytes ~write ~alloc_ways =
  let c = make_cache () in
  let pos = ref 0 in
  let run n =
    for _ = 1 to n do
      pos := (!pos + line) land (bytes - 1);
      ignore
        (Tp_hw.Cache.access_masked_fast c ~alloc_ways ~vaddr:!pos ~paddr:!pos
           ~write)
    done
  in
  { name; batch = 1000; run }

let tlb_op =
  let t = Tp_hw.Tlb.create ~name:"bench" { Tp_hw.Tlb.entries = 64; ways = 4 } in
  let vpn = ref 0 in
  let run n =
    for _ = 1 to n do
      vpn := (!vpn + 1) land 0x7F;
      ignore (Tp_hw.Tlb.access t ~asid:1 ~vpn:!vpn ~global:false)
    done
  in
  { name = "tlb.access"; batch = 1000; run }

(* Machine.access over a cyclic address stream; [walk] gives each
   access real page-table lines (read on a TLB miss). *)
let machine_op ~name ~counters ~addrs ~walk =
  let m = Tp_hw.Machine.create p in
  let n_addrs = Array.length addrs in
  let i = ref 0 in
  let pt_base = 96 * 1024 * 1024 in
  let run n =
    Tp_obs.Ctl.set_counters counters;
    for _ = 1 to n do
      let a = Array.unsafe_get addrs !i in
      i := (!i + 1) mod n_addrs;
      let vpn = Tp_hw.Defs.page_of a in
      let pt_root =
        if walk then pt_base + ((vpn lsr 9) land 511 * 8 / line * line)
        else Tp_hw.Machine.no_walk
      in
      let pt_leaf =
        if walk then pt_base + 4096 + ((vpn land 511) * 8 / line * line)
        else Tp_hw.Machine.no_walk
      in
      ignore
        (Tp_hw.Machine.access m ~core:0 ~asid:1 ~global:false
           ~llc_ways:Tp_hw.Machine.all_ways ~pt_root ~pt_leaf ~vaddr:a ~paddr:a
           ~kind:Tp_hw.Defs.Read)
    done;
    Tp_obs.Ctl.set_counters false
  in
  {
    name =
      Printf.sprintf "machine.access %s (counters %s)" name
        (if counters then "on" else "off");
    batch = 1000;
    run;
  }

let sweep ~bytes ~stride = Array.init (bytes / stride) (fun i -> i * stride)

(* Pseudo-random lines over 64 MiB: far beyond the 8 MiB LLC. *)
let random_lines =
  let s = ref 12345 in
  Array.init 65536 (fun _ ->
      s := ((!s * 1103515245) + 12345) land 0x3FFF_FFFF;
      !s mod (64 * 1024 * 1024 / line) * line)

let machine_ops ~counters =
  [
    machine_op ~name:"hit" ~counters
      ~addrs:(sweep ~bytes:(16 * 1024) ~stride:line)
      ~walk:false;
    (* A 2-line stride never confirms a stream: L1 misses, L2 hits, no
       prefetches. *)
    machine_op ~name:"L1 miss/L2 hit" ~counters
      ~addrs:(sweep ~bytes:(128 * 1024) ~stride:(2 * line))
      ~walk:false;
    machine_op ~name:"prefetching stream" ~counters
      ~addrs:(sweep ~bytes:(4 * 1024 * 1024) ~stride:line)
      ~walk:false;
    machine_op ~name:"LLC miss + walk" ~counters ~addrs:random_lines ~walk:true;
  ]

let snapshot_op =
  let m = Tp_hw.Machine.create p in
  let run n =
    for _ = 1 to n do
      ignore (Tp_hw.Machine.snapshot m)
    done
  in
  { name = "machine.snapshot"; batch = 1; run }

let restore_op =
  let m = Tp_hw.Machine.create p in
  let snap = Tp_hw.Machine.snapshot m in
  let run n =
    for _ = 1 to n do
      Tp_hw.Machine.restore m snap
    done
  in
  { name = "machine.restore"; batch = 1; run }

(* One replayed op, amortised over a 64-access stream: the per-op
   figure the >=5x sweep-throughput floor rests on. *)
let replay_op =
  let replay_ops = 64 in
  let m = Tp_hw.Machine.create p in
  let r = Tp_hw.Replay.create () in
  for i = 0 to replay_ops - 1 do
    Tp_hw.Replay.append_access r ~kind:Tp_hw.Defs.Read
      ~vaddr:(i * 64 land 0x3FFF)
      ~paddr:(i * 64 land 0x3FFF)
      ~root_pa:0 ~leaf_pa:(-1)
  done;
  Tp_hw.Replay.append_idle r;
  let run n =
    for _ = 1 to n / replay_ops do
      ignore
        (Tp_hw.Replay.replay m ~core:0 ~asid:1 ~llc_ways:(lnot 0)
           ~until:max_int r)
    done
  in
  { name = "replay.step"; batch = 64 * replay_ops; run }

(* The leakage layer on one Table 3 cell's shape: 300 samples over 16
   symbols with integer (cycle-count) outputs.  [leakage.test] is one
   MI estimate plus 100 shuffled ones. *)
let leakage_samples =
  let r = Tp_util.Rng.create ~seed:1 in
  let input = Array.init 300 (fun i -> i mod 16) in
  let output =
    Array.map
      (fun s -> float_of_int (1000 + Tp_util.Rng.int r 40 + (3 * (s land 3))))
      input
  in
  { Tp_channel.Mi.input; output }

let mi_op =
  let run n =
    for _ = 1 to n do
      ignore (Tp_channel.Mi.estimate leakage_samples)
    done
  in
  { name = "mi.estimate (300 x 16)"; batch = 1; run }

let leakage_op =
  let rng = Tp_util.Rng.create ~seed:2 in
  let run n =
    for _ = 1 to n do
      ignore (Tp_channel.Leakage.test ~rng leakage_samples)
    done
  in
  { name = "leakage.test (300 x 16)"; batch = 1; run }

let ops =
  [
    cache_op ~name:"cache.access_fast hit" ~bytes:(16 * 1024) ~write:false
      ~alloc_ways:max_int;
    cache_op ~name:"cache.access_fast miss+evict" ~bytes:(4 * 1024 * 1024)
      ~write:true ~alloc_ways:max_int;
    cache_op ~name:"cache.access_masked_fast (CAT mask)"
      ~bytes:(4 * 1024 * 1024) ~write:false ~alloc_ways:0x3;
    tlb_op;
  ]
  @ machine_ops ~counters:false
  @ machine_ops ~counters:true
  @ [ snapshot_op; restore_op; replay_op; mi_op; leakage_op ]

let ns_per_op op =
  let test =
    Test.make ~name:op.name (Staged.stage (fun () -> op.run op.batch))
  in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let raw =
    Benchmark.run cfg Instance.[ monotonic_clock ] (List.hd (Test.elements test))
  in
  match
    Analyze.OLS.estimates (Analyze.one ols Instance.monotonic_clock raw)
  with
  | Some (v :: _) -> Some (v /. float_of_int op.batch)
  | _ -> None

let words_per_op op =
  op.run op.batch;
  let reps = 10 in
  let before = Gc.minor_words () in
  for _ = 1 to reps do
    op.run op.batch
  done;
  let w = Gc.minor_words () -. before in
  w /. float_of_int (reps * op.batch)

let ns_text ~none = Option.fold ~none ~some:(Printf.sprintf "%.1f")

(* The layer ledger: the same rows as the table, one JSON object each,
   ns/op [null] where the estimate failed. *)
let write_json file rows =
  let row (name, ns, words) =
    Printf.sprintf
      "    {\"operation\": \"%s\", \"ns_per_op\": %s, \"words_per_op\": %.1f}"
      (Tp_util.Json.escape name)
      (ns_text ~none:"null" ns)
      words
  in
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc
        "{\n\
        \  \"schema\": \"tpsim-bench/2\",\n\
        \  \"suite\": \"micro\",\n\
        \  \"platform\": \"%s\",\n\
        \  \"ocaml\": \"%s\",\n\
        \  \"rows\": [\n\
         %s\n\
        \  ]\n\
         }\n"
        p.Tp_hw.Platform.name Sys.ocaml_version
        (String.concat ",\n" (List.map row rows)))

let () =
  let json =
    match Array.to_list Sys.argv with
    | [ _ ] -> None
    | [ _; "--json"; file ] -> Some file
    | _ ->
        prerr_endline "usage: micro.exe [--json FILE]";
        exit 2
  in
  let rows =
    List.map
      (fun op ->
        let words = words_per_op op in
        (op.name, ns_per_op op, words))
      ops
  in
  let table =
    Tp_util.Table.create ~title:"Simulator hot-path costs"
      ~headers:[ "operation"; "ns/op"; "words/op" ]
  in
  List.iter
    (fun (name, ns, words) ->
      Tp_util.Table.add_row table
        [
          name;
          ns_text ~none:"n/a" ns;
          Printf.sprintf "%.1f" words;
        ])
    rows;
  Tp_util.Table.print table;
  Option.iter (fun file -> write_json file rows) json
