type tracker = {
  mutable ptag : int; (* partial page tag, 2 bits; -1 = invalid *)
  mutable last_line : int; (* last line offset seen within the page *)
  mutable dir : int; (* +1 / -1 *)
  mutable confidence : int; (* saturates at [confirm] *)
}

type t = {
  slots : int;
  slot_bits : int; (* log2 slots: the partial tag sits above the index *)
  degree : int;
  table : tracker array;
  mutable enabled : bool;
  (* Observability only: never read by the model itself. *)
  st : Tp_obs.Counter.set;
  st_issued : Tp_obs.Counter.t;
  st_allocs : Tp_obs.Counter.t;
  st_filtered : Tp_obs.Counter.t;
  st_resets : Tp_obs.Counter.t;
}

let confirm = 2
let partial_tag_bits = 2

let create ?(name = "prefetcher") ~slots ~degree () =
  assert (Defs.is_pow2 slots);
  assert (degree > 0);
  let st = Tp_obs.Counter.make_set name in
  let st_issued = Tp_obs.Counter.counter st "lines_issued" in
  let st_allocs = Tp_obs.Counter.counter st "tracker_allocs" in
  let st_filtered = Tp_obs.Counter.counter st "alloc_filtered" in
  let st_resets = Tp_obs.Counter.counter st "hard_resets" in
  {
    slots;
    slot_bits = Defs.log2 slots;
    degree;
    table =
      Array.init slots (fun _ ->
          { ptag = -1; last_line = 0; dir = 1; confidence = 0 });
    enabled = true;
    st;
    st_issued;
    st_allocs;
    st_filtered;
    st_resets;
  }

let counters t = t.st

(* Tracker index: a hash over the page number, not its low bits.  Real
   prefetchers fold higher address bits into their indexing, so page
   colouring — which fixes only the low page bits — cannot partition
   the tracker table.  (If the index were [page mod slots], disjoint
   colour sets would imply disjoint slot sets and the §5.3.2 residual
   channel could not exist.) *)
let[@inline] slot_of t ~page =
  (page lxor (page lsr 4) lxor (page lsr 9)) land (t.slots - 1)

let set_enabled t b = t.enabled <- b
let enabled t = t.enabled

let degree t = t.degree

(* Shifts, not divisions: this runs on every L1 miss. *)
let[@inline] on_access t ~paddr ~line_bits ~out =
  if not t.enabled then 0
  else begin
    let page = Defs.page_of paddr in
    let line_off = Defs.page_offset paddr lsr line_bits in
    let slot = slot_of t ~page in
    let ptag = (page lsr t.slot_bits) land ((1 lsl partial_tag_bits) - 1) in
    let tr = t.table.(slot) in
    let lines_per_page = 1 lsl (Defs.page_bits - line_bits) in
    if tr.ptag = ptag then begin
      let delta = line_off - tr.last_line in
      if delta = tr.dir && delta <> 0 then
        tr.confidence <- Int.min confirm (tr.confidence + 1)
      else if delta = -tr.dir && delta <> 0 then begin
        tr.dir <- -tr.dir;
        tr.confidence <- 1
      end
      else if delta <> 0 then tr.confidence <- Int.max 0 (tr.confidence - 1);
      tr.last_line <- line_off;
      if tr.confidence >= confirm then begin
        (* Confirmed stream: prefetch [degree] lines ahead, staying
           within the page (real prefetchers stop at page boundaries). *)
        let n = ref 0 in
        let next = ref (line_off + tr.dir) in
        while !n < t.degree && !next >= 0 && !next < lines_per_page do
          out.(!n) <- (page lsl Defs.page_bits) + (!next lsl line_bits);
          incr n;
          next := !next + tr.dir
        done;
        Tp_obs.Counter.add t.st_issued !n;
        !n
      end
      else 0
    end
    else begin
      (* Allocation filter: an incumbent stream with confidence resists
         immediate replacement (real prefetchers require repeated
         misses in a new region before stealing a trained tracker).
         The filter is what makes tracker state observable across a
         domain switch: a tracker the previous domain degraded to zero
         confidence re-allocates instantly, while an intact one costs
         extra unprefetched accesses to displace — a per-page timing
         difference the next domain can read back. *)
      if tr.ptag <> -1 && tr.confidence > 0 then begin
        Tp_obs.Counter.incr t.st_filtered;
        tr.confidence <- tr.confidence - 1;
        0
      end
      else begin
        Tp_obs.Counter.incr t.st_allocs;
        tr.ptag <- ptag;
        tr.last_line <- line_off;
        tr.dir <- 1;
        tr.confidence <- 0;
        0
      end
    end
  end

let trained_slots t =
  Array.fold_left
    (fun acc tr -> if tr.ptag <> -1 && tr.confidence >= confirm then acc + 1 else acc)
    0 t.table

let hard_reset t =
  Tp_obs.Counter.incr t.st_resets;
  Array.iter
    (fun tr ->
      tr.ptag <- -1;
      tr.last_line <- 0;
      tr.dir <- 1;
      tr.confidence <- 0)
    t.table

let state_words t = (4 * Array.length t.table) + 1 + Blob.counters_words t.st

let save_state t blob off =
  let n = Array.length t.table in
  for i = 0 to n - 1 do
    let tr = t.table.(i) in
    let o = off + (4 * i) in
    blob.{o} <- tr.ptag;
    blob.{o + 1} <- tr.last_line;
    blob.{o + 2} <- tr.dir;
    blob.{o + 3} <- tr.confidence
  done;
  let off = off + (4 * n) in
  blob.{off} <- (if t.enabled then 1 else 0);
  Blob.save_counters blob (off + 1) t.st

let load_state t blob off =
  let n = Array.length t.table in
  for i = 0 to n - 1 do
    let tr = t.table.(i) in
    let o = off + (4 * i) in
    tr.ptag <- blob.{o};
    tr.last_line <- blob.{o + 1};
    tr.dir <- blob.{o + 2};
    tr.confidence <- blob.{o + 3}
  done;
  let off = off + (4 * n) in
  t.enabled <- blob.{off} <> 0;
  Blob.load_counters blob (off + 1) t.st
