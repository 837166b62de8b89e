(* Tests for the hardware simulator: cache geometry/behaviour, TLB,
   predictors, prefetcher, DRAM, interconnect, machine composition. *)

open Tp_hw

(* A user access with no page-table walk, no CAT mask, vaddr = paddr. *)
let plain_access m ~core ~asid ~addr ~kind =
  Machine.access m ~core ~asid ~global:false ~llc_ways:Machine.all_ways
    ~pt_root:Machine.no_walk ~pt_leaf:Machine.no_walk ~vaddr:addr ~paddr:addr
    ~kind

let g32k8 = { Cache.size = 32768; ways = 8; line = 64; indexing = Cache.Virtual }

let mk () = Cache.create g32k8

let is_hit = function Cache.Hit -> true | Cache.Miss _ -> false

let test_cache_geometry () =
  Alcotest.(check int) "sets" 64 (Cache.sets g32k8);
  Alcotest.(check int) "colours of L1" 1 (Cache.colours g32k8);
  let llc = { Cache.size = 8 * 1024 * 1024; ways = 16; line = 64; indexing = Cache.Physical } in
  Alcotest.(check int) "LLC sets" 8192 (Cache.sets llc);
  Alcotest.(check int) "LLC colours" 128 (Cache.colours llc);
  let l2 = { Cache.size = 256 * 1024; ways = 8; line = 64; indexing = Cache.Physical } in
  Alcotest.(check int) "x86 L2 colours" 8 (Cache.colours l2)

let test_cache_miss_then_hit () =
  let c = mk () in
  Alcotest.(check bool) "first access misses" false
    (is_hit (Cache.access c ~vaddr:0x1000 ~paddr:0x1000 ~write:false));
  Alcotest.(check bool) "second access hits" true
    (is_hit (Cache.access c ~vaddr:0x1000 ~paddr:0x1000 ~write:false))

let test_cache_same_line_hits () =
  let c = mk () in
  ignore (Cache.access c ~vaddr:0x1000 ~paddr:0x1000 ~write:false);
  Alcotest.(check bool) "same line other byte hits" true
    (is_hit (Cache.access c ~vaddr:0x103F ~paddr:0x103F ~write:false))

let test_cache_conflict_eviction () =
  let c = mk () in
  (* 64 sets * 64B line: addresses 4096 apart map to the same set. *)
  let stride = 64 * 64 in
  for w = 0 to 8 do
    ignore (Cache.access c ~vaddr:(w * stride) ~paddr:(w * stride) ~write:false)
  done;
  (* 9 lines into an 8-way set: the first (LRU) must be gone. *)
  Alcotest.(check bool) "way 0 evicted" false
    (Cache.probe c ~vaddr:0 ~paddr:0);
  Alcotest.(check bool) "way 1 still present" true
    (Cache.probe c ~vaddr:stride ~paddr:stride)

let test_cache_lru_order () =
  let c = mk () in
  let stride = 64 * 64 in
  for w = 0 to 7 do
    ignore (Cache.access c ~vaddr:(w * stride) ~paddr:(w * stride) ~write:false)
  done;
  (* Touch way 0 so way 1 becomes LRU; a new line must evict way 1. *)
  ignore (Cache.access c ~vaddr:0 ~paddr:0 ~write:false);
  ignore (Cache.access c ~vaddr:(8 * stride) ~paddr:(8 * stride) ~write:false);
  Alcotest.(check bool) "way 0 survives (recently used)" true
    (Cache.probe c ~vaddr:0 ~paddr:0);
  Alcotest.(check bool) "way 1 evicted (LRU)" false
    (Cache.probe c ~vaddr:stride ~paddr:stride)

let test_cache_dirty_flush () =
  let c = mk () in
  ignore (Cache.access c ~vaddr:0 ~paddr:0 ~write:true);
  ignore (Cache.access c ~vaddr:64 ~paddr:64 ~write:true);
  ignore (Cache.access c ~vaddr:128 ~paddr:128 ~write:false);
  Alcotest.(check int) "dirty count" 2 (Cache.dirty_lines c);
  let wb = Cache.flush c in
  Alcotest.(check int) "flush writes back dirty lines" 2 wb;
  Alcotest.(check int) "empty after flush" 0 (Cache.valid_lines c);
  Alcotest.(check bool) "probe misses after flush" false
    (Cache.probe c ~vaddr:0 ~paddr:0)

let test_cache_write_hit_dirties () =
  let c = mk () in
  ignore (Cache.access c ~vaddr:0 ~paddr:0 ~write:false);
  Alcotest.(check int) "clean" 0 (Cache.dirty_lines c);
  ignore (Cache.access c ~vaddr:0 ~paddr:0 ~write:true);
  Alcotest.(check int) "dirtied by write hit" 1 (Cache.dirty_lines c)

let test_cache_eviction_reports_address () =
  let c = Cache.create { Cache.size = 128; ways = 1; line = 64; indexing = Cache.Physical } in
  ignore (Cache.access c ~vaddr:0 ~paddr:0 ~write:true);
  (match Cache.access c ~vaddr:128 ~paddr:128 ~write:false with
  | Cache.Miss { evicted_dirty; evicted } ->
      Alcotest.(check bool) "evicted dirty" true evicted_dirty;
      Alcotest.(check int) "evicted line addr" 0 evicted
  | Cache.Hit -> Alcotest.fail "expected miss");
  (* Fill of an invalid way reports no eviction. *)
  match Cache.access c ~vaddr:64 ~paddr:64 ~write:false with
  | Cache.Miss { evicted; _ } -> Alcotest.(check int) "no victim" (-1) evicted
  | Cache.Hit -> Alcotest.fail "expected miss"

let test_cache_virtual_vs_physical_indexing () =
  let v = Cache.create { g32k8 with Cache.indexing = Cache.Virtual } in
  let p = Cache.create { g32k8 with Cache.indexing = Cache.Physical } in
  Alcotest.(check int) "virtual uses vaddr" 1 (Cache.set_of v ~vaddr:64 ~paddr:0);
  Alcotest.(check int) "physical uses paddr" 0 (Cache.set_of p ~vaddr:64 ~paddr:0)

let test_cache_insert_clean () =
  let c = mk () in
  ignore (Cache.insert_clean c ~vaddr:0 ~paddr:0);
  Alcotest.(check bool) "present" true (Cache.probe c ~vaddr:0 ~paddr:0);
  Alcotest.(check int) "not dirty" 0 (Cache.dirty_lines c)

let test_tlb_hit_miss_and_asid () =
  let t = Tlb.create { Tlb.entries = 64; ways = 4 } in
  Alcotest.(check bool) "miss" true
    (Tlb.access t ~asid:1 ~vpn:5 ~global:false = Tlb.Miss);
  Alcotest.(check bool) "hit" true
    (Tlb.access t ~asid:1 ~vpn:5 ~global:false = Tlb.Hit);
  Alcotest.(check bool) "other asid misses" true
    (Tlb.access t ~asid:2 ~vpn:5 ~global:false = Tlb.Miss)

let test_tlb_global_crosses_asids () =
  let t = Tlb.create { Tlb.entries = 64; ways = 4 } in
  ignore (Tlb.access t ~asid:1 ~vpn:9 ~global:true);
  Alcotest.(check bool) "global hits under other asid" true
    (Tlb.access t ~asid:2 ~vpn:9 ~global:true = Tlb.Hit)

let test_tlb_flush_asid_spares_global () =
  let t = Tlb.create { Tlb.entries = 64; ways = 4 } in
  ignore (Tlb.access t ~asid:1 ~vpn:1 ~global:false);
  ignore (Tlb.access t ~asid:1 ~vpn:2 ~global:true);
  ignore (Tlb.access t ~asid:2 ~vpn:3 ~global:false);
  Tlb.flush_asid t 1;
  Alcotest.(check bool) "asid1 entry gone" false (Tlb.probe t ~asid:1 ~vpn:1);
  Alcotest.(check bool) "global survives" true (Tlb.probe t ~asid:1 ~vpn:2);
  Alcotest.(check bool) "asid2 survives" true (Tlb.probe t ~asid:2 ~vpn:3)

let test_tlb_conflict_one_way () =
  (* 1-way 32-entry TLB: vpns 32 apart conflict (the Sabre L1 TLBs). *)
  let t = Tlb.create { Tlb.entries = 32; ways = 1 } in
  ignore (Tlb.access t ~asid:1 ~vpn:0 ~global:false);
  ignore (Tlb.access t ~asid:1 ~vpn:32 ~global:false);
  Alcotest.(check bool) "original evicted" false (Tlb.probe t ~asid:1 ~vpn:0)

let test_tlb_flush_all () =
  let t = Tlb.create { Tlb.entries = 64; ways = 4 } in
  ignore (Tlb.access t ~asid:1 ~vpn:1 ~global:true);
  Tlb.flush_all t;
  Alcotest.(check int) "empty" 0 (Tlb.valid_entries t)

let test_btb_predicts_after_training () =
  let b = Btb.create { Btb.entries = 512; ways = 4 } in
  Alcotest.(check bool) "cold mispredicts" true
    (Btb.branch b ~addr:0x400 ~target:0x800 = Btb.Mispredicted);
  Alcotest.(check bool) "trained predicts" true
    (Btb.branch b ~addr:0x400 ~target:0x800 = Btb.Predicted);
  Alcotest.(check bool) "target change mispredicts" true
    (Btb.branch b ~addr:0x400 ~target:0xC00 = Btb.Mispredicted)

let test_btb_flush () =
  let b = Btb.create { Btb.entries = 512; ways = 4 } in
  ignore (Btb.branch b ~addr:0x400 ~target:0x800);
  Btb.flush b;
  Alcotest.(check bool) "mispredicts after flush" true
    (Btb.branch b ~addr:0x400 ~target:0x800 = Btb.Mispredicted);
  Alcotest.(check int) "then one valid entry" 1 (Btb.valid_entries b)

let test_btb_conflict () =
  let b = Btb.create { Btb.entries = 8; ways = 1 } in
  ignore (Btb.branch b ~addr:0 ~target:100);
  (* 8 sets, 4-byte granularity: addr 32 maps to set 0 too. *)
  ignore (Btb.branch b ~addr:32 ~target:200);
  Alcotest.(check bool) "alias evicted original" true
    (Btb.branch b ~addr:0 ~target:100 = Btb.Mispredicted)

let test_bhb_learns_pattern () =
  let h = Bhb.create { Bhb.history_bits = 8; pht_entries = 1024 } in
  (* A branch always taken becomes predicted after warmup. *)
  let mis = ref 0 in
  for i = 1 to 100 do
    if Bhb.branch h ~addr:0x40 ~taken:true = Bhb.Mispredicted && i > 10 then
      incr mis
  done;
  Alcotest.(check int) "steady state predicts always-taken" 0 !mis

let test_bhb_flush_resets () =
  let h = Bhb.create { Bhb.history_bits = 8; pht_entries = 1024 } in
  for _ = 1 to 50 do
    ignore (Bhb.branch h ~addr:0x40 ~taken:true)
  done;
  Bhb.flush h;
  Alcotest.(check bool) "mispredicts taken after flush" true
    (Bhb.branch h ~addr:0x40 ~taken:true = Bhb.Mispredicted)

(* The suggestions of one demand access, read back from the caller's
   buffer. *)
let suggest pf ~paddr ~line =
  let out = Array.make (Prefetcher.degree pf) (-1) in
  let n =
    Prefetcher.on_access pf ~paddr ~line_bits:(Defs.log2 line) ~out
  in
  Array.to_list (Array.sub out 0 n)

let test_prefetcher_stream_detection () =
  let pf = Prefetcher.create ~slots:16 ~degree:2 () in
  let line = 64 in
  (* Sequential accesses within a page: third access confirms. *)
  Alcotest.(check (list int)) "1st: none" [] (suggest pf ~paddr:0 ~line);
  Alcotest.(check (list int)) "2nd: none" [] (suggest pf ~paddr:64 ~line);
  let pfs = suggest pf ~paddr:128 ~line in
  Alcotest.(check (list int)) "3rd: prefetch next two" [ 192; 256 ] pfs

let test_prefetcher_page_boundary () =
  let pf = Prefetcher.create ~slots:16 ~degree:2 () in
  let line = 64 in
  let last = 4096 - 64 in
  ignore (suggest pf ~paddr:(last - 128) ~line);
  ignore (suggest pf ~paddr:(last - 64) ~line);
  let pfs = suggest pf ~paddr:last ~line in
  Alcotest.(check (list int)) "no cross-page prefetch" [] pfs

let test_prefetcher_disabled () =
  let pf = Prefetcher.create ~slots:16 ~degree:2 () in
  Prefetcher.set_enabled pf false;
  for i = 0 to 5 do
    Alcotest.(check (list int)) "disabled: none" []
      (suggest pf ~paddr:(i * 64) ~line:64)
  done

let test_prefetcher_state_survives_and_aliases () =
  let pf = Prefetcher.create ~slots:16 ~degree:2 () in
  let line = 64 in
  (* Domain A trains a stream on page 0. *)
  for i = 0 to 4 do
    ignore (suggest pf ~paddr:(i * line) ~line)
  done;
  Alcotest.(check bool) "trained" true (Prefetcher.trained_slots pf >= 1);
  (* Domain B touches a page aliasing the same (hashed) slot and the
     same partial tag: the tracker still holds A's state, so B's first
     access that "continues" A's stream triggers a spurious prefetch. *)
  let slot0 = Prefetcher.slot_of pf ~page:0 in
  let ptag page = (page lsr 4) land 3 in
  let rec find page =
    if Prefetcher.slot_of pf ~page = slot0 && ptag page = ptag 0 && page > 0 then
      page
    else find (page + 1)
  in
  let pb = find 1 * 4096 in
  let pfs = suggest pf ~paddr:(pb + (5 * line)) ~line in
  (* A's last_line was 4, direction +1; B's first access to line 5
     looks like a continuation => spurious prefetch, B-visible. *)
  Alcotest.(check bool) "spurious prefetch from stale state" true
    (List.length pfs > 0);
  Prefetcher.hard_reset pf;
  Alcotest.(check int) "hard reset clears" 0 (Prefetcher.trained_slots pf)

(* A list-returning reference model of the stream prefetcher, written
   for clarity rather than speed: the buffer-writing
   [Prefetcher.on_access] must suggest exactly what it suggests. *)
module Ref_prefetcher = struct
  type tracker = {
    mutable ptag : int;
    mutable last : int;
    mutable dir : int;
    mutable conf : int;
  }

  type t = { slots : int; degree : int; table : tracker array }

  let create ~slots ~degree =
    {
      slots;
      degree;
      table =
        Array.init slots (fun _ -> { ptag = -1; last = 0; dir = 1; conf = 0 });
    }

  let on_access t ~paddr ~line =
    let page = paddr / 4096 in
    let off = paddr mod 4096 / line in
    let slot = (page lxor (page lsr 4) lxor (page lsr 9)) land (t.slots - 1) in
    let ptag = (page lsr Defs.log2 t.slots) land 3 in
    let tr = t.table.(slot) in
    if tr.ptag = ptag then begin
      let delta = off - tr.last in
      if delta <> 0 && delta = tr.dir then tr.conf <- min 2 (tr.conf + 1)
      else if delta <> 0 && delta = -tr.dir then begin
        tr.dir <- -tr.dir;
        tr.conf <- 1
      end
      else if delta <> 0 then tr.conf <- max 0 (tr.conf - 1);
      tr.last <- off;
      if tr.conf < 2 then []
      else
        List.init t.degree (fun k -> off + ((k + 1) * tr.dir))
        |> List.fold_left
             (fun (stopped, acc) l ->
               if stopped || l < 0 || l >= 4096 / line then (true, acc)
               else (false, (page * 4096) + (l * line) :: acc))
             (false, [])
        |> snd |> List.rev
    end
    else if tr.ptag <> -1 && tr.conf > 0 then begin
      tr.conf <- tr.conf - 1;
      []
    end
    else begin
      tr.ptag <- ptag;
      tr.last <- off;
      tr.dir <- 1;
      tr.conf <- 0;
      []
    end
end

(* Random demand streams over a few pages, two of which share a
   16-slot tracker under different partial tags (pages 0 and 17), so
   streams evict and filter each other.  Each step moves the page's
   cursor one line forward or back (streams, direction flips, and runs
   into either page edge), jumps to a page edge, or jumps anywhere. *)
let qcheck_prefetcher_matches_reference =
  let pages = [| 0; 17; 34; 5; 1000 |] in
  QCheck.Test.make ~name:"prefetcher buffer API = list reference model"
    ~count:200
    QCheck.(
      triple (int_range 1 4) bool
        (list_of_size
           Gen.(int_range 1 300)
           (triple (int_bound 4) (int_bound 5) (int_bound 127))))
    (fun (degree, wide, steps) ->
      let line = if wide then 64 else 32 in
      let lines = 4096 / line in
      let pf = Prefetcher.create ~slots:16 ~degree () in
      let model = Ref_prefetcher.create ~slots:16 ~degree in
      let out = Array.make degree (-1) in
      let cursor = Array.make (Array.length pages) 0 in
      List.for_all
        (fun (pg, move, k) ->
          let c =
            match move with
            | 0 | 1 -> Stdlib.min (lines - 1) (cursor.(pg) + 1)
            | 2 -> Stdlib.max 0 (cursor.(pg) - 1)
            | 3 -> 0
            | 4 -> lines - 1
            | _ -> k mod lines
          in
          cursor.(pg) <- c;
          let paddr = (pages.(pg) * 4096) + (c * line) in
          let n =
            Prefetcher.on_access pf ~paddr ~line_bits:(Defs.log2 line) ~out
          in
          Array.to_list (Array.sub out 0 n)
          = Ref_prefetcher.on_access model ~paddr ~line)
        steps)

let test_dram_row_buffer () =
  let d = Dram.create { Dram.banks = 8; row_bits = 13; t_hit = 100; t_miss = 200 } in
  Alcotest.(check int) "first access misses row" 200 (Dram.access d ~paddr:0);
  Alcotest.(check int) "same row hits" 100 (Dram.access d ~paddr:64);
  (* Next row in the same bank: rows are bank-interleaved, so row+8. *)
  Alcotest.(check int) "row conflict misses" 200
    (Dram.access d ~paddr:(8 * 8192));
  Dram.close_all d;
  Alcotest.(check int) "closed after precharge" 200 (Dram.access d ~paddr:64)

(* Issue [n] transactions on [core], one every [gap] cycles; returns
   the delay of the last one. *)
let flood bus ~core ~gap ~n =
  let d = ref 0 in
  for i = 1 to n do
    d := Interconnect.record bus ~core ~now:(i * gap)
  done;
  !d

let test_interconnect_contention () =
  let b = Interconnect.create ~cores:2 ~window:1000 ~slots_per_window:5 () in
  (* A lone moderate stream fits the service rate... *)
  Alcotest.(check int) "alone: no delay" 0 (flood b ~core:0 ~gap:300 ~n:20);
  (* ...but once a second core streams concurrently, delays appear. *)
  ignore (flood b ~core:1 ~gap:300 ~n:20);
  let d = Interconnect.record b ~core:0 ~now:6300 in
  Alcotest.(check bool) "delayed under contention" true (d > 0)

let test_interconnect_partitioned () =
  (* Under the hypothetical bandwidth partition, a core's delay is
     independent of the other core's traffic. *)
  let measure ~other_floods =
    let b = Interconnect.create ~cores:2 ~window:1000 ~slots_per_window:5 () in
    Interconnect.set_partitioned b true;
    if other_floods then ignore (flood b ~core:1 ~gap:10 ~n:50);
    flood b ~core:0 ~gap:300 ~n:20
  in
  Alcotest.(check int) "other core's flood is invisible"
    (measure ~other_floods:false)
    (measure ~other_floods:true)

let test_machine_latency_orders () =
  let m = Machine.create Platform.haswell in
  let miss = plain_access m ~core:0 ~asid:1 ~addr:0x10000 ~kind:Defs.Read in
  let hit = plain_access m ~core:0 ~asid:1 ~addr:0x10000 ~kind:Defs.Read in
  Alcotest.(check bool) "miss slower than hit" true (miss > hit);
  Alcotest.(check bool) "hit is L1-ish" true (hit <= 10)

let test_machine_cycles_accumulate () =
  let m = Machine.create Platform.sabre in
  let c0 = Machine.cycles m ~core:0 in
  ignore (plain_access m ~core:0 ~asid:1 ~addr:0 ~kind:Defs.Read);
  Alcotest.(check bool) "cycles advanced" true (Machine.cycles m ~core:0 > c0);
  Alcotest.(check int) "other core unaffected" 0 (Machine.cycles m ~core:1)

let test_machine_llc_back_invalidation () =
  let m = Machine.create Platform.haswell in
  (* Core 0 loads a line (fills L1/L2/LLC). *)
  ignore (plain_access m ~core:0 ~asid:1 ~addr:0x40000 ~kind:Defs.Read);
  Alcotest.(check bool) "in core0 L1" true
    (Cache.probe (Machine.l1d m ~core:0) ~vaddr:0x40000 ~paddr:0x40000);
  (* Core 1 floods the same LLC set until core0's line is evicted. *)
  let llc = Machine.llc m in
  let g = Cache.geometry llc in
  let stride = Cache.sets g * g.Cache.line in
  for w = 1 to g.Cache.ways + 4 do
    let a = 0x40000 + (w * stride) in
    ignore (plain_access m ~core:1 ~asid:2 ~addr:a ~kind:Defs.Read)
  done;
  Alcotest.(check bool) "LLC eviction back-invalidates core0 L1" false
    (Cache.probe (Machine.l1d m ~core:0) ~vaddr:0x40000 ~paddr:0x40000)

(* Core 0 writes a 12 MiB buffer line by line, half again the haswell
   LLC, so every fill beyond the first 8 MiB evicts an LLC line and
   snoops the private caches of all four cores, three of them empty.
   Between writes it re-reads a 4 KiB hot buffer, which stays in its
   L1-D while the LLC ages it out, so some snoops find their line.  The
   final state digest and every cache's counters were recorded before
   snoops of empty caches returned early; that shortcut must change
   neither. *)
let test_machine_stream_snoops () =
  let was = Tp_obs.Ctl.counters_on () in
  Tp_obs.Ctl.set_counters true;
  let m = Machine.create Platform.haswell in
  Fun.protect
    ~finally:(fun () -> Tp_obs.Ctl.set_counters was)
    (fun () ->
      for i = 0 to (12 * 1024 * 1024 / 64) - 1 do
        ignore (plain_access m ~core:0 ~asid:1 ~addr:(i * 64) ~kind:Defs.Write);
        let hot = (16 * 1024 * 1024) + (i land 63 * 64) in
        ignore (plain_access m ~core:0 ~asid:1 ~addr:hot ~kind:Defs.Read)
      done);
  let counters c =
    let s = Cache.counters c in
    (Tp_obs.Counter.set_name s, Tp_obs.Counter.snapshot s)
  in
  let caches =
    List.concat_map
      (fun core ->
        [ Machine.l1d m ~core; Machine.l1i m ~core ]
        @ Option.to_list (Machine.l2 m ~core))
      (List.init (Machine.n_cores m) Fun.id)
    @ [ Machine.llc m ]
  in
  let expect ~hits ~misses ~writebacks ~prefetch_fills ~invalidations =
    [
      ("hits", hits);
      ("misses", misses);
      ("writebacks", writebacks);
      ("prefetch_fills", prefetch_fills);
      ("invalidations", invalidations);
      ("flushes", 0);
      ("flush_writebacks", 0);
    ]
  in
  let idle =
    expect ~hits:0 ~misses:0 ~writebacks:0 ~prefetch_fills:0 ~invalidations:0
  in
  let idle_core c =
    [ (c ^ ".l1d", idle); (c ^ ".l1i", idle); (c ^ ".l2", idle) ]
  in
  Alcotest.(check string) "state digest" "861757dbb4e689d63f332eee4bb981c2"
    (Machine.state_digest m);
  Alcotest.(check (list (pair string (list (pair string int)))))
    "cache counters"
    ([
       ( "c0.l1d",
         expect ~hits:196480 ~misses:196736 ~writebacks:196160
           ~prefetch_fills:0 ~invalidations:64 );
       ("c0.l1i", idle);
       ( "c0.l2",
         expect ~hits:181500 ~misses:15236 ~writebacks:0
           ~prefetch_fills:181500 ~invalidations:0 );
     ]
    @ idle_core "c1" @ idle_core "c2" @ idle_core "c3"
    @ [
        ( "llc",
          expect ~hits:178426 ~misses:196736 ~writebacks:0 ~prefetch_fills:0
            ~invalidations:0 );
      ])
    (List.map counters caches)

let test_machine_flush_ops () =
  let m = Machine.create Platform.sabre in
  ignore (plain_access m ~core:0 ~asid:1 ~addr:0 ~kind:Defs.Write);
  let cost = Machine.flush_l1_hw m ~core:0 in
  Alcotest.(check bool) "flush costs cycles" true (cost > 0);
  Alcotest.(check int) "L1D empty" 0 (Cache.valid_lines (Machine.l1d m ~core:0))

let test_machine_flush_cost_depends_on_dirtiness () =
  let mk_dirty n =
    let m = Machine.create Platform.sabre in
    for i = 0 to n - 1 do
      ignore
        (plain_access m ~core:0 ~asid:1 ~addr:(i * 32) ~kind:Defs.Write)
    done;
    Machine.flush_l1_hw m ~core:0
  in
  Alcotest.(check bool) "more dirty lines cost more" true (mk_dirty 512 > mk_dirty 16)

let test_cache_masked_allocation () =
  let c = Cache.create { Cache.size = 512; ways = 8; line = 64; indexing = Cache.Physical } in
  (* One set, 8 ways; class A owns ways 0-3, class B ways 4-7. *)
  let mask_a = 0x0F and mask_b = 0xF0 in
  for i = 0 to 3 do
    ignore (Cache.access_masked c ~alloc_ways:mask_a ~vaddr:(i * 64) ~paddr:(i * 64) ~write:false)
  done;
  for i = 4 to 7 do
    ignore (Cache.access_masked c ~alloc_ways:mask_b ~vaddr:(i * 64) ~paddr:(i * 64) ~write:false)
  done;
  (* B floods: it may only displace its own lines; A's survive. *)
  for i = 8 to 31 do
    ignore (Cache.access_masked c ~alloc_ways:mask_b ~vaddr:(i * 64) ~paddr:(i * 64) ~write:false)
  done;
  for i = 0 to 3 do
    Alcotest.(check bool) "class A line survives B's flood" true
      (Cache.probe c ~vaddr:(i * 64) ~paddr:(i * 64))
  done;
  (* Hits cross classes: B can still *read* an A-allocated line. *)
  Alcotest.(check bool) "cross-class hit" true
    (Cache.access_masked c ~alloc_ways:mask_b ~vaddr:0 ~paddr:0 ~write:false
    = Cache.Hit)

let test_machine_clflush_globally_evicts () =
  let m = Machine.create Platform.haswell in
  ignore (plain_access m ~core:0 ~asid:1 ~addr:0x5000 ~kind:Defs.Read);
  ignore (plain_access m ~core:1 ~asid:2 ~addr:0x5000 ~kind:Defs.Read);
  let cost = Machine.clflush m ~core:0 ~paddr:0x5000 in
  Alcotest.(check bool) "clflush costs cycles" true (cost > 0);
  Alcotest.(check bool) "gone from LLC" false
    (Cache.probe (Machine.llc m) ~vaddr:0x5000 ~paddr:0x5000);
  Alcotest.(check bool) "gone from the other core's L1 too" false
    (Cache.probe (Machine.l1d m ~core:1) ~vaddr:0x5000 ~paddr:0x5000);
  (* The next access pays the full miss again. *)
  let lat = plain_access m ~core:1 ~asid:2 ~addr:0x5000 ~kind:Defs.Read in
  Alcotest.(check bool) "reload is a full miss" true (lat > 100)

let test_dram_bank_hash_unpartitionable () =
  (* The §2.2 point behind the row-buffer channel: page colouring
     constrains frame mod n_colours, but the hashed bank selector still
     spreads any colour class over every bank. *)
  let cfg = Platform.haswell.Platform.dram in
  let banks_seen = Hashtbl.create 8 in
  for frame = 0 to 4095 do
    if frame mod 8 = 3 (* one colour class *) then
      Hashtbl.replace banks_seen (Dram.bank_of cfg ~paddr:(frame * 4096)) ()
  done;
  Alcotest.(check int) "one colour reaches all banks" cfg.Dram.banks
    (Hashtbl.length banks_seen)

let qcheck_clflush_then_miss =
  QCheck.Test.make ~name:"clflush forces the next access to miss" ~count:50
    QCheck.(int_bound 1_000_000)
    (fun a ->
      let a = a land lnot 63 in
      let m = Machine.create Platform.haswell in
      ignore (plain_access m ~core:0 ~asid:1 ~addr:a ~kind:Defs.Read);
      ignore (Machine.clflush m ~core:0 ~paddr:a);
      plain_access m ~core:0 ~asid:1 ~addr:a ~kind:Defs.Read > 50)

(* ---- Cache scans against a naive reference ------------------------ *)

(* The cache as it was before its scans were specialised: a plain loop
   for the way search and one masked scan for the victim, for every
   associativity and mask.  [Cache] must agree with it on every return
   value, on the victim it reports and on its whole saved state. *)
module Ref_cache = struct
  type t = {
    g : Cache.geometry;
    n_sets : int;
    line_bits : int;
    tags : int array;
    dirty : bool array;
    age : int array;
    mutable clock : int;
    mutable n_dirty : int;
    mutable n_valid : int;
    mutable ev_line : int;
    mutable ev_dirty : bool;
    (* Cache's counters, in their declared order: hits, misses,
       writebacks, prefetch_fills, invalidations, flushes,
       flush_writebacks. *)
    ctr : int array;
  }

  let create (g : Cache.geometry) =
    let n = g.Cache.size / g.Cache.line in
    {
      g;
      n_sets = Cache.sets g;
      line_bits = Defs.log2 g.Cache.line;
      tags = Array.make n (-1);
      dirty = Array.make n false;
      age = Array.make n 0;
      clock = 0;
      n_dirty = 0;
      n_valid = 0;
      ev_line = -1;
      ev_dirty = false;
      ctr = Array.make 7 0;
    }

  let count t i = if Tp_obs.Ctl.counters_on () then t.ctr.(i) <- t.ctr.(i) + 1

  let set_of t ~vaddr ~paddr =
    let a =
      match t.g.Cache.indexing with Cache.Virtual -> vaddr | Physical -> paddr
    in
    (a lsr t.line_bits) land (t.n_sets - 1)

  let find_way t set tag =
    let ways = t.g.Cache.ways in
    let r = ref (-1) in
    for w = ways - 1 downto 0 do
      if t.tags.((set * ways) + w) = tag then r := (set * ways) + w
    done;
    !r

  let lru_way t set mask =
    let ways = t.g.Cache.ways in
    let best = ref (-1) and found = ref (-1) in
    for w = 0 to ways - 1 do
      let i = (set * ways) + w in
      if !found < 0 && mask land (1 lsl w) <> 0 then
        if t.tags.(i) = -1 then found := i
        else if !best < 0 || t.age.(i) < t.age.(!best) then best := i
    done;
    if !found >= 0 then !found else !best

  let touch t i =
    t.clock <- t.clock + 1;
    t.age.(i) <- t.clock

  let alloc t set tag ~dirty ~mask =
    let i = lru_way t set mask in
    let old = t.tags.(i) in
    t.ev_dirty <- old <> -1 && t.dirty.(i);
    t.ev_line <- (if old = -1 then -1 else old lsl t.line_bits);
    if t.ev_dirty then begin
      count t 2;
      t.n_dirty <- t.n_dirty - 1
    end;
    if old = -1 then t.n_valid <- t.n_valid + 1;
    t.tags.(i) <- tag;
    t.dirty.(i) <- dirty;
    if dirty then t.n_dirty <- t.n_dirty + 1;
    touch t i

  let access t ~alloc_ways ~vaddr ~paddr ~write =
    let mask = alloc_ways land ((1 lsl t.g.Cache.ways) - 1) in
    let set = set_of t ~vaddr ~paddr and tag = paddr lsr t.line_bits in
    let i = find_way t set tag in
    if i >= 0 then begin
      count t 0;
      touch t i;
      if write && not t.dirty.(i) then begin
        t.dirty.(i) <- true;
        t.n_dirty <- t.n_dirty + 1
      end;
      true
    end
    else begin
      count t 1;
      alloc t set tag ~dirty:write ~mask;
      false
    end

  let insert_clean t ~vaddr ~paddr =
    let set = set_of t ~vaddr ~paddr and tag = paddr lsr t.line_bits in
    if find_way t set tag >= 0 then true
    else begin
      count t 3;
      alloc t set tag ~dirty:false ~mask:((1 lsl t.g.Cache.ways) - 1);
      false
    end

  let invalidate_line t ~vaddr ~paddr =
    if t.n_valid > 0 then begin
      let i = find_way t (set_of t ~vaddr ~paddr) (paddr lsr t.line_bits) in
      if i >= 0 then begin
        count t 4;
        if t.dirty.(i) then t.n_dirty <- t.n_dirty - 1;
        t.dirty.(i) <- false;
        t.tags.(i) <- -1;
        t.n_valid <- t.n_valid - 1
      end
    end

  let flush t =
    let wb = t.n_dirty in
    count t 5;
    if Tp_obs.Ctl.counters_on () then t.ctr.(6) <- t.ctr.(6) + wb;
    Array.fill t.tags 0 (Array.length t.tags) (-1);
    Array.fill t.dirty 0 (Array.length t.dirty) false;
    Array.fill t.age 0 (Array.length t.age) 0;
    t.n_dirty <- 0;
    t.n_valid <- 0;
    wb

  let reset t =
    Array.fill t.tags 0 (Array.length t.tags) (-1);
    Array.fill t.dirty 0 (Array.length t.dirty) false;
    Array.fill t.age 0 (Array.length t.age) 0;
    Array.fill t.ctr 0 (Array.length t.ctr) 0;
    t.clock <- 0;
    t.n_dirty <- 0;
    t.n_valid <- 0;
    t.ev_line <- -1;
    t.ev_dirty <- false

  (* Writes the state blob Cache.save_state writes for the same state. *)
  let save t b =
    let off = Blob.save_ints b 0 t.tags in
    let off = Blob.save_bools b off t.dirty in
    let off = Blob.save_ints b off t.age in
    b.{off} <- t.clock;
    b.{off + 1} <- t.n_dirty;
    b.{off + 2} <- t.n_valid;
    b.{off + 3} <- t.ev_line;
    b.{off + 4} <- (if t.ev_dirty then 1 else 0);
    Blob.save_ints b (off + 5) t.ctr
end

(* Addresses are drawn from four sets of the cache so that random
   sequences keep them full and evicting: [vset]/[pset] pick the set
   the virtual/physical address indexes, [tagn] which of 40 lines
   mapping there (more than the 16 ways of the LLCs). *)
type cache_op =
  | Access of { vset : int; pset : int; tagn : int; write : bool; mask : int }
  | Insert of { pset : int; tagn : int }
  | Invalidate of { vset : int; pset : int; tagn : int }
  | Flush
  | Round_trip
      (** save_state, then load_state into a second cache holding other
          state, which carries on *)

let pp_cache_op = function
  | Access { vset; pset; tagn; write; mask } ->
      Printf.sprintf "access(v%d,p%d,t%d,%s,mask %#x)" vset pset tagn
        (if write then "w" else "r")
        mask
  | Insert { pset; tagn } -> Printf.sprintf "insert(p%d,t%d)" pset tagn
  | Invalidate { vset; pset; tagn } ->
      Printf.sprintf "inval(v%d,p%d,t%d)" vset pset tagn
  | Flush -> "flush"
  | Round_trip -> "round-trip"

let gen_cache_op =
  let open QCheck.Gen in
  let set = int_bound 3 and tagn = int_bound 39 in
  (* Full masks (the all-ways fast path) about as often as CAT
     subsets. *)
  let mask =
    frequency
      [
        (3, return max_int);
        (1, return 0xFFFF);
        (4, int_range 1 0xFFFF);
        (1, map (fun w -> 1 lsl w) (int_bound 15));
      ]
  in
  frequency
    [
      ( 24,
        map3
          (fun (vset, pset) (tagn, write) mask ->
            Access { vset; pset; tagn; write; mask })
          (pair set set) (pair tagn bool) mask );
      (6, map2 (fun pset tagn -> Insert { pset; tagn }) set tagn);
      ( 6,
        map3
          (fun vset pset tagn -> Invalidate { vset; pset; tagn })
          set set tagn );
      (* Each costs a pass over the whole state: rarer. *)
      (1, return Flush);
      (1, return Round_trip);
    ]

(* Every distinct cache geometry of the platform presets: 4-, 8- and
   16-way, virtually and physically indexed. *)
let preset_geometries =
  List.sort_uniq compare
    (List.concat_map
       (fun (p : Platform.t) ->
         [ p.Platform.l1d; p.Platform.l1i; p.Platform.llc ]
         @ Option.to_list p.Platform.l2)
       Platform.all)

(* Per geometry, built once: two caches for save/load round trips, the
   reference, a fresh cache's state (loaded to start a case) and two
   blobs.  The LLCs hold 128K lines, so allocating these per case
   would dominate the test's run time. *)
type cache_rig = {
  rg : Cache.geometry;
  mutable cur : Cache.t;
  mutable spare : Cache.t;
  rf : Ref_cache.t;
  pristine : Blob.t;
  got : Blob.t;
  want : Blob.t;
}

let cache_rigs =
  lazy
    (List.map
       (fun g ->
         let cur = Cache.create g in
         let words = Cache.state_words cur in
         let pristine = Blob.create words in
         ignore (Cache.save_state cur pristine 0 : int);
         {
           rg = g;
           cur;
           spare = Cache.create g;
           rf = Ref_cache.create g;
           pristine;
           got = Blob.create words;
           want = Blob.create words;
         })
       preset_geometries)

(* Runs [ops] through both caches of [rig], from empty; [Error] names
   the first disagreement. *)
let cache_vs_reference rig ops =
  let g = rig.rg and r = rig.rf in
  ignore (Cache.load_state rig.cur rig.pristine 0 : int);
  Ref_cache.reset r;
  let n_sets = Cache.sets g and line = g.Cache.line in
  (* The mask must allow some way of this geometry. *)
  let mask_of m =
    if m land ((1 lsl g.Cache.ways) - 1) = 0 then max_int else m
  in
  let addr set tagn = ((tagn * n_sets) + set) * line in
  let check step op what a b =
    if a = b then Ok ()
    else
      Error
        (Printf.sprintf "step %d (%s): %s differs" step (pp_cache_op op) what)
  in
  let ( >>= ) = Result.bind in
  let rec go step = function
    | [] ->
        ignore (Cache.save_state rig.cur rig.got 0 : int);
        ignore (Ref_cache.save r rig.want : int);
        let n = Blob.length rig.got in
        let i = ref 0 in
        while !i < n && rig.got.{!i} = rig.want.{!i} do
          incr i
        done;
        if !i = n then Ok ()
        else Error (Printf.sprintf "final state blob differs at word %d" !i)
    | op :: rest ->
        let c = rig.cur in
        let check what = check step op what in
        let victim () =
          check "last_evicted" (Cache.last_evicted c) r.Ref_cache.ev_line
          >>= fun () ->
          check "last_evicted_dirty"
            (Cache.last_evicted_dirty c)
            r.Ref_cache.ev_dirty
        in
        (match op with
        | Access { vset; pset; tagn; write; mask } ->
            let vaddr = addr vset tagn and paddr = addr pset tagn in
            let alloc_ways = mask_of mask in
            check "hit"
              (Cache.access_masked_fast c ~alloc_ways ~vaddr ~paddr ~write)
              (Ref_cache.access r ~alloc_ways ~vaddr ~paddr ~write)
            >>= victim
        | Insert { pset; tagn } ->
            let a = addr pset tagn in
            check "hit"
              (Cache.insert_clean_fast c ~vaddr:a ~paddr:a)
              (Ref_cache.insert_clean r ~vaddr:a ~paddr:a)
            >>= victim
        | Invalidate { vset; pset; tagn } ->
            let vaddr = addr vset tagn and paddr = addr pset tagn in
            Cache.invalidate_line c ~vaddr ~paddr;
            Ref_cache.invalidate_line r ~vaddr ~paddr;
            check "valid lines" (Cache.valid_lines c) r.Ref_cache.n_valid
        | Flush -> check "flush writebacks" (Cache.flush c) (Ref_cache.flush r)
        | Round_trip ->
            let n = Cache.save_state c rig.got 0 in
            check "load_state offset" (Cache.load_state rig.spare rig.got 0) n
            >>= fun () ->
            rig.cur <- rig.spare;
            rig.spare <- c;
            Ok ())
        >>= fun () -> go (step + 1) rest
  in
  go 0 ops

let qcheck_cache_matches_reference =
  QCheck.Test.make ~name:"cache scans = naive reference (all presets)"
    ~count:100
    QCheck.(
      pair bool
        (make
           ~print:(fun ops -> String.concat "; " (List.map pp_cache_op ops))
           ~shrink:Shrink.list
           Gen.(list_size (int_range 1 300) gen_cache_op)))
    (fun (counters, ops) ->
      let was = Tp_obs.Ctl.counters_on () in
      Tp_obs.Ctl.set_counters counters;
      let res =
        Fun.protect
          ~finally:(fun () -> Tp_obs.Ctl.set_counters was)
          (fun () ->
            List.filter_map
              (fun rig ->
                match cache_vs_reference rig ops with
                | Ok () -> None
                | Error e ->
                    Some (Format.asprintf "%a: %s" Cache.pp_geometry rig.rg e))
              (Lazy.force cache_rigs))
      in
      match res with
      | [] -> true
      | errs -> QCheck.Test.fail_report (String.concat "\n" errs))

let test_platform_table1 () =
  let h = Platform.haswell in
  Alcotest.(check int) "haswell colours (L2)" 8 (Platform.colours h);
  Alcotest.(check int) "haswell LLC colours" 128 (Platform.llc_colours h);
  let s = Platform.sabre in
  Alcotest.(check int) "sabre colours (L2=LLC)" 16 (Platform.colours s);
  Alcotest.(check bool) "sabre has L1 flush instr" true s.Platform.has_l1_flush_instr;
  Alcotest.(check bool) "haswell lacks L1 flush instr" false
    h.Platform.has_l1_flush_instr;
  Alcotest.(check (float 1e-6)) "cycles->us" 1.0 (Platform.cycles_to_us h 3400)

let qcheck_cache_occupancy_bounded =
  QCheck.Test.make ~name:"cache occupancy never exceeds capacity" ~count:50
    QCheck.(pair small_int (list_of_size Gen.(int_range 1 400) (int_bound 100_000)))
    (fun (_, addrs) ->
      let c = Cache.create { Cache.size = 4096; ways = 4; line = 64; indexing = Cache.Physical } in
      List.iter
        (fun a -> ignore (Cache.access c ~vaddr:a ~paddr:a ~write:(a land 1 = 1)))
        addrs;
      Cache.valid_lines c <= Cache.capacity_lines c
      && Cache.dirty_lines c <= Cache.valid_lines c)

let qcheck_cache_flush_empties =
  QCheck.Test.make ~name:"flush always empties the cache" ~count:50
    QCheck.(list_of_size Gen.(int_range 0 200) (int_bound 100_000))
    (fun addrs ->
      let c = Cache.create { Cache.size = 8192; ways = 2; line = 64; indexing = Cache.Virtual } in
      List.iter (fun a -> ignore (Cache.access c ~vaddr:a ~paddr:a ~write:true)) addrs;
      ignore (Cache.flush c);
      Cache.valid_lines c = 0 && Cache.dirty_lines c = 0)

let qcheck_access_after_access_hits =
  QCheck.Test.make ~name:"immediate re-access always hits" ~count:100
    QCheck.(int_bound 1_000_000)
    (fun a ->
      let c = mk () in
      ignore (Cache.access c ~vaddr:a ~paddr:a ~write:false);
      is_hit (Cache.access c ~vaddr:a ~paddr:a ~write:false))

let qcheck_tlb_occupancy =
  QCheck.Test.make ~name:"tlb occupancy bounded" ~count:50
    QCheck.(list_of_size Gen.(int_range 0 300) (int_bound 10_000))
    (fun vpns ->
      let t = Tlb.create { Tlb.entries = 64; ways = 4 } in
      List.iter (fun v -> ignore (Tlb.access t ~asid:1 ~vpn:v ~global:false)) vpns;
      Tlb.valid_entries t <= 64)

let suite =
  [
    Alcotest.test_case "cache geometry" `Quick test_cache_geometry;
    Alcotest.test_case "cache miss then hit" `Quick test_cache_miss_then_hit;
    Alcotest.test_case "cache same line hits" `Quick test_cache_same_line_hits;
    Alcotest.test_case "cache conflict eviction" `Quick test_cache_conflict_eviction;
    Alcotest.test_case "cache LRU order" `Quick test_cache_lru_order;
    Alcotest.test_case "cache dirty flush" `Quick test_cache_dirty_flush;
    Alcotest.test_case "cache write-hit dirties" `Quick test_cache_write_hit_dirties;
    Alcotest.test_case "cache eviction address" `Quick test_cache_eviction_reports_address;
    Alcotest.test_case "cache indexing policy" `Quick test_cache_virtual_vs_physical_indexing;
    Alcotest.test_case "cache insert clean" `Quick test_cache_insert_clean;
    Alcotest.test_case "tlb hit/miss/asid" `Quick test_tlb_hit_miss_and_asid;
    Alcotest.test_case "tlb global entries" `Quick test_tlb_global_crosses_asids;
    Alcotest.test_case "tlb flush_asid spares global" `Quick test_tlb_flush_asid_spares_global;
    Alcotest.test_case "tlb 1-way conflicts" `Quick test_tlb_conflict_one_way;
    Alcotest.test_case "tlb flush all" `Quick test_tlb_flush_all;
    Alcotest.test_case "btb trains" `Quick test_btb_predicts_after_training;
    Alcotest.test_case "btb flush" `Quick test_btb_flush;
    Alcotest.test_case "btb conflicts" `Quick test_btb_conflict;
    Alcotest.test_case "bhb learns" `Quick test_bhb_learns_pattern;
    Alcotest.test_case "bhb flush" `Quick test_bhb_flush_resets;
    Alcotest.test_case "prefetcher stream" `Quick test_prefetcher_stream_detection;
    Alcotest.test_case "prefetcher page boundary" `Quick test_prefetcher_page_boundary;
    Alcotest.test_case "prefetcher disable" `Quick test_prefetcher_disabled;
    Alcotest.test_case "prefetcher residual state" `Quick
      test_prefetcher_state_survives_and_aliases;
    Alcotest.test_case "dram row buffer" `Quick test_dram_row_buffer;
    Alcotest.test_case "interconnect contention" `Quick test_interconnect_contention;
    Alcotest.test_case "interconnect partitioned" `Quick test_interconnect_partitioned;
    Alcotest.test_case "machine latency orders" `Quick test_machine_latency_orders;
    Alcotest.test_case "machine cycle accounting" `Quick test_machine_cycles_accumulate;
    Alcotest.test_case "machine LLC back-invalidation" `Quick
      test_machine_llc_back_invalidation;
    Alcotest.test_case "machine stream snoops" `Quick test_machine_stream_snoops;
    Alcotest.test_case "machine flush ops" `Quick test_machine_flush_ops;
    Alcotest.test_case "machine flush cost vs dirtiness" `Quick
      test_machine_flush_cost_depends_on_dirtiness;
    Alcotest.test_case "cache masked allocation (CAT)" `Quick
      test_cache_masked_allocation;
    Alcotest.test_case "clflush global eviction" `Quick
      test_machine_clflush_globally_evicts;
    Alcotest.test_case "dram bank hash vs colouring" `Quick
      test_dram_bank_hash_unpartitionable;
    QCheck_alcotest.to_alcotest qcheck_clflush_then_miss;
    Alcotest.test_case "platform table 1" `Quick test_platform_table1;
    QCheck_alcotest.to_alcotest qcheck_cache_occupancy_bounded;
    QCheck_alcotest.to_alcotest qcheck_cache_flush_empties;
    QCheck_alcotest.to_alcotest qcheck_access_after_access_hits;
    QCheck_alcotest.to_alcotest qcheck_tlb_occupancy;
    QCheck_alcotest.to_alcotest qcheck_prefetcher_matches_reference;
    QCheck_alcotest.to_alcotest qcheck_cache_matches_reference;
  ]
