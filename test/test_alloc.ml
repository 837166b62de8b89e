(* Exact allocation gates for the simulated per-access path and the
   leakage test.

   Every simulated memory access runs Uctx -> System -> Machine ->
   caches/TLBs/prefetcher/interconnect/DRAM, so a single allocation on
   that path is multiplied by every access of every experiment.  Minor
   allocation is deterministic (it does not depend on the host or its
   load), so these gates are exact: after warm-up, N accesses must
   allocate 0 words. *)

open Tp_hw
open Tp_kernel

(* Words allocated by [f ()], net of the cost of the measurement
   itself. *)
let words f =
  let measure f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let overhead = measure ignore in
  int_of_float (measure f -. overhead)

let with_counters on f =
  let was = Tp_obs.Ctl.counters_on () in
  Tp_obs.Ctl.set_counters on;
  Fun.protect ~finally:(fun () -> Tp_obs.Ctl.set_counters was) f

(* ---- Machine.access, path by path ------------------------------- *)

(* The addresses of one path, chosen so that after one warm-up pass
   every access takes that path:
   - hit: a 16 KiB sweep, L1-resident;
   - l1-miss: a 2-line stride over 128 KiB, too big for the L1 but not
     for the L2 (haswell) or LLC (sabre), and too sparse to train the
     stream prefetcher;
   - stream: a sequential 1 MiB sweep, which confirms streams and
     issues prefetches on haswell;
   - llc-miss: pseudo-random lines over 64 MiB, each with a page-table
     walk through real root and leaf lines. *)
type path = {
  name : string;
  addrs : int array;
  walk : bool;
  mutable cursor : int;  (** runs continue where the last one ended *)
}

let n_ops = 16384

let paths (p : Platform.t) =
  let line = p.Platform.line in
  let sweep ~bytes ~stride = Array.init (bytes / stride) (fun i -> i * stride) in
  let lcg = ref 12345 in
  let random_line _ =
    lcg := ((!lcg * 1103515245) + 12345) land 0x3FFF_FFFF;
    !lcg mod (64 * 1024 * 1024 / line) * line
  in
  let path name addrs ~walk = { name; addrs; walk; cursor = 0 } in
  [
    path "hit" (sweep ~bytes:(16 * 1024) ~stride:line) ~walk:false;
    path "l1-miss" (sweep ~bytes:(128 * 1024) ~stride:(2 * line)) ~walk:false;
    path "stream" (sweep ~bytes:(1024 * 1024) ~stride:line) ~walk:false;
    (* Enough lines that no run revisits the lines of an earlier one. *)
    path "llc-miss" (Array.init (8 * n_ops) random_line) ~walk:true;
  ]

(* Page-table lines for the walk of a page, in a region disjoint from
   the data. *)
let pt_base = 96 * 1024 * 1024

let run_path m (p : Platform.t) path =
  let line = p.Platform.line in
  for _ = 1 to n_ops do
    let a = Array.unsafe_get path.addrs path.cursor in
    path.cursor <- (path.cursor + 1) mod Array.length path.addrs;
    let vpn = Defs.page_of a in
    let pt_root =
      if path.walk then pt_base + ((vpn lsr 9) land 511 * 8 / line * line)
      else Machine.no_walk
    in
    let pt_leaf =
      if path.walk then
        pt_base + Defs.page_size + ((vpn land 511) * 8 / line * line)
      else Machine.no_walk
    in
    ignore
      (Machine.access m ~core:0 ~asid:1 ~global:false ~llc_ways:Machine.all_ways
         ~pt_root ~pt_leaf ~vaddr:a ~paddr:a ~kind:Defs.Read
        : int)
  done

let test_machine_access_allocates_nothing () =
  List.iter
    (fun (p : Platform.t) ->
      List.iter
        (fun counters ->
          List.iter
            (fun path ->
              with_counters counters (fun () ->
                  let m = Machine.create p in
                  run_path m p path;
                  let w = words (fun () -> run_path m p path) in
                  Alcotest.(check int)
                    (Printf.sprintf "%s %s, counters %b: words for %d accesses"
                       p.Platform.name path.name counters n_ops)
                    0 w))
            (paths p))
        [ false; true ])
    [ Platform.haswell; Platform.sabre ]

(* The paths really are the paths they are named after. *)
let test_paths_take_their_path () =
  with_counters true (fun () ->
      let m = Machine.create Platform.haswell in
      let pf = Option.get (Machine.prefetcher m ~core:0) in
      let sets =
        [
          Cache.counters (Machine.l1d m ~core:0);
          Prefetcher.counters pf;
          Cache.counters (Machine.llc m);
        ]
      in
      (* L1 hits, prefetched lines and LLC misses of one warm run. *)
      let counts path =
        run_path m Platform.haswell path;
        let before = List.map Tp_obs.Counter.snapshot sets in
        run_path m Platform.haswell path;
        List.map2
          (fun (set, s0) key ->
            List.assoc key (Tp_obs.Counter.snapshot set) - List.assoc key s0)
          (List.combine sets before)
          [ "hits"; "lines_issued"; "misses" ]
      in
      match List.map counts (paths Platform.haswell) with
      | [ [ hit; _; _ ]; [ l1; pf_l1; _ ]; [ _; pf_stream; _ ]; [ _; _; llc ] ]
        ->
          Alcotest.(check int) "hit path hits L1" n_ops hit;
          Alcotest.(check int) "l1-miss path misses L1" 0 l1;
          Alcotest.(check int) "l1-miss path issues no prefetch" 0 pf_l1;
          Alcotest.(check bool) "stream path prefetches" true
            (pf_stream > n_ops / 2);
          Alcotest.(check bool) "llc-miss path misses the LLC" true
            (llc > n_ops / 2)
      | _ -> assert false)

(* ---- Uctx, through the kernel ----------------------------------- *)

(* Two streams per booted domain: a line walk that stays within a page
   for many accesses (the one-entry translation cache hits), and a
   page-hopping one where every access lands on another page than the
   last, so each refills the translation cache from the page tables. *)
let test_uctx_ops_allocate_nothing () =
  List.iter
    (fun (p : Platform.t) ->
      List.iter
        (fun counters ->
          with_counters counters (fun () ->
              let b =
                Boot.boot ~platform:p ~config:(Config.protected_ p) ~domains:2 ()
              in
              let sys = b.Boot.sys in
              let d0 = b.Boot.domains.(0) in
              let pages = 64 in
              let buf = Boot.alloc_pages b d0 ~pages in
              let tcb = Boot.spawn b d0 (fun _ -> ()) in
              Sched.remove (System.sched sys) ~core:0 tcb;
              let ctx = Uctx.make sys ~core:0 tcb ~slice_end:max_int in
              let line = p.Platform.line in
              let span = pages * Defs.page_size / line in
              let lines_per_page = Defs.page_size / line in
              let streams =
                [
                  ("line walk", fun i -> buf + (i * 3 mod span * line));
                  ( "page hopping",
                    (* 7 is coprime to the 64 pages: consecutive
                       accesses never share a page. *)
                    fun i ->
                      buf
                      + (i * 7 mod pages * Defs.page_size)
                      + (i * 5 mod lines_per_page * line) );
                ]
              in
              List.iter
                (fun (name, addr) ->
                  let ops () =
                    for i = 0 to n_ops - 1 do
                      let a = addr i in
                      if i land 3 = 0 then Uctx.write ctx a else Uctx.read ctx a
                    done
                  in
                  ops ();
                  Alcotest.(check int)
                    (Printf.sprintf "%s, counters %b, %s: words for %d Uctx ops"
                       p.Platform.name counters name n_ops)
                    0 (words ops))
                streams))
        [ false; true ])
    [ Platform.haswell; Platform.sabre ]

(* ---- Replay ------------------------------------------------------ *)

(* A recorded stream with every kind of op: accesses of each kind over
   the llc-miss path's scattered lines (so the TLBs miss; half of them
   walk real page-table lines, half take the flat walk cost),
   branches, jumps, clflushes and compute, ending in the idle marker.
   Replaying it must allocate nothing per op: the whole replay of
   [n_ops] ops allocates 0 words. *)
let replay_stream (p : Platform.t) =
  let line = p.Platform.line in
  let r = Replay.create () in
  let addrs = (List.nth (paths p) 3).addrs in
  for i = 0 to n_ops - 1 do
    let a = addrs.(i) in
    let vpn = Defs.page_of a in
    let root_pa, leaf_pa =
      if i land 1 = 0 then
        ( pt_base + ((vpn lsr 9) land 511 * 8 / line * line),
          pt_base + Defs.page_size + ((vpn land 511) * 8 / line * line) )
      else (Machine.no_walk, Machine.no_walk)
    in
    let access kind =
      Replay.append_access r ~kind ~vaddr:a ~paddr:a ~root_pa ~leaf_pa
    in
    match i land 7 with
    | 0 | 1 | 2 -> access Defs.Read
    | 3 -> access Defs.Write
    | 4 -> access Defs.Fetch
    | 5 -> Replay.append_cond_branch r ~vaddr:a ~paddr:a ~taken:(i land 8 = 0)
    | 6 when i land 8 = 0 ->
        Replay.append_jump r ~vaddr:a ~paddr:a ~target:(a + 64)
    | 6 -> Replay.append_clflush r ~paddr:a
    | _ -> Replay.append_add_cycles r (i land 63)
  done;
  Replay.append_idle r;
  r

let test_replay_allocates_nothing () =
  List.iter
    (fun (p : Platform.t) ->
      let r = replay_stream p in
      List.iter
        (fun counters ->
          with_counters counters (fun () ->
              let m = Machine.create p in
              let replay () =
                match
                  Replay.replay m ~core:0 ~asid:1 ~llc_ways:Machine.all_ways
                    ~until:max_int r
                with
                | `Done_idle -> ()
                | `Budget | `Incomplete ->
                    Alcotest.fail "stream did not replay to its idle marker"
              in
              replay ();
              Alcotest.(check int)
                (Printf.sprintf "%s, counters %b: words for replaying %d ops"
                   p.Platform.name counters (Replay.length r))
                0 (words replay)))
        [ false; true ])
    [ Platform.haswell; Platform.sabre ]

(* ---- The leakage test ------------------------------------------- *)

(* A fixed 300-sample, 16-symbol dataset with integer (cycle-count-like)
   outputs: the shape of one Table 3 cell. *)
let leakage_samples () =
  let r = Tp_util.Rng.create ~seed:1 in
  let input = Array.init 300 (fun i -> i mod 16) in
  let output =
    Array.map
      (fun s -> float_of_int (1000 + Tp_util.Rng.int r 40 + (3 * (s land 3))))
      input
  in
  { Tp_channel.Mi.input; output }

let test_shuffled_estimate_allocates_nothing () =
  let s = leakage_samples () in
  let sc = Tp_channel.Mi.scratch s in
  let perm = Tp_util.Rng.permutation (Tp_util.Rng.create ~seed:2) 300 in
  let dst = Array.make 1 0.0 in
  Tp_channel.Mi.estimate_into sc ~perm dst 0;
  Alcotest.(check int) "words for one shuffled estimate" 0
    (words (fun () -> Tp_channel.Mi.estimate_into sc ~perm dst 0))

(* Everything one test allocates is set-up: the grouping, the grid and
   the buffers, sized once for all 101 estimates.  Counted are all words
   allocated, including the arrays too large for the minor heap (the
   per-symbol densities); the bound is the measured count. *)
let leakage_test_words = 11_100

let test_leakage_test_words () =
  let s = leakage_samples () in
  let run () =
    ignore (Tp_channel.Leakage.test ~rng:(Tp_util.Rng.create ~seed:3) s)
  in
  let allocated f =
    let before = Gc.allocated_bytes () in
    f ();
    (Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8)
  in
  run ();
  let w = int_of_float (allocated run -. allocated ignore) in
  Alcotest.(check bool)
    (Printf.sprintf "Leakage.test on 300 x 16 allocates %d <= %d words" w
       leakage_test_words)
    true
    (w <= leakage_test_words)

let test_rng_int_allocates_nothing () =
  let r = Tp_util.Rng.create ~seed:4 in
  let acc = ref 0 in
  let draws () =
    for _ = 1 to n_ops do
      acc := !acc lxor Tp_util.Rng.int r 1000
    done
  in
  draws ();
  Alcotest.(check int)
    (Printf.sprintf "words for %d Rng.int draws" n_ops)
    0 (words draws)

let suite =
  [
    Alcotest.test_case "Machine.access allocates nothing" `Quick
      test_machine_access_allocates_nothing;
    Alcotest.test_case "allocation paths take their path" `Quick
      test_paths_take_their_path;
    Alcotest.test_case "Uctx read/write allocate nothing" `Quick
      test_uctx_ops_allocate_nothing;
    Alcotest.test_case "Replay.replay allocates nothing" `Quick
      test_replay_allocates_nothing;
    Alcotest.test_case "shuffled MI estimate allocates nothing" `Quick
      test_shuffled_estimate_allocates_nothing;
    Alcotest.test_case "Leakage.test words bounded" `Quick
      test_leakage_test_words;
    Alcotest.test_case "Rng.int allocates nothing" `Quick
      test_rng_int_allocates_nothing;
  ]
