type indexing = Virtual | Physical

type geometry = { size : int; ways : int; line : int; indexing : indexing }

let sets g = g.size / (g.ways * g.line)
let colours g = max 1 (sets g * g.line / Defs.page_size)

type t = {
  g : geometry;
  n_sets : int;
  n_ways : int; (* copy of g.ways, one load instead of two on the hot path *)
  way_mask : int; (* (1 lsl ways) - 1 *)
  line_bits : int;
  (* Flat arrays indexed by set * ways + way. tag = -1 means invalid. *)
  tags : int array;
  dirty : bool array;
  age : int array;
  mutable clock : int;
  mutable n_dirty : int;
  mutable n_valid : int;
  (* Victim of the last allocating miss, so the allocation-free access
     variants can report evictions without boxing a result. *)
  mutable ev_line : int;
  mutable ev_dirty : bool;
  (* Observability only: never read by the model itself. *)
  st : Tp_obs.Counter.set;
  st_hits : Tp_obs.Counter.t;
  st_misses : Tp_obs.Counter.t;
  st_writebacks : Tp_obs.Counter.t;
  st_prefetch_fills : Tp_obs.Counter.t;
  st_invals : Tp_obs.Counter.t;
  st_flushes : Tp_obs.Counter.t;
  st_flush_writebacks : Tp_obs.Counter.t;
}

let create ?(name = "cache") g =
  assert (Defs.is_pow2 g.size && Defs.is_pow2 g.ways && Defs.is_pow2 g.line);
  assert (g.size >= g.ways * g.line);
  let n_sets = sets g in
  let n = n_sets * g.ways in
  let st = Tp_obs.Counter.make_set name in
  (* Bound outside the record so the counters are declared (and hence
     printed) in this order. *)
  let st_hits = Tp_obs.Counter.counter st "hits" in
  let st_misses = Tp_obs.Counter.counter st "misses" in
  let st_writebacks = Tp_obs.Counter.counter st "writebacks" in
  let st_prefetch_fills = Tp_obs.Counter.counter st "prefetch_fills" in
  let st_invals = Tp_obs.Counter.counter st "invalidations" in
  let st_flushes = Tp_obs.Counter.counter st "flushes" in
  let st_flush_writebacks = Tp_obs.Counter.counter st "flush_writebacks" in
  {
    g;
    n_sets;
    n_ways = g.ways;
    way_mask = (1 lsl g.ways) - 1;
    line_bits = Defs.log2 g.line;
    tags = Array.make n (-1);
    dirty = Array.make n false;
    age = Array.make n 0;
    clock = 0;
    n_dirty = 0;
    n_valid = 0;
    ev_line = -1;
    ev_dirty = false;
    st;
    st_hits;
    st_misses;
    st_writebacks;
    st_prefetch_fills;
    st_invals;
    st_flushes;
    st_flush_writebacks;
  }

let counters t = t.st

let geometry t = t.g

let set_of t ~vaddr ~paddr =
  let index_addr = match t.g.indexing with Virtual -> vaddr | Physical -> paddr in
  (index_addr lsr t.line_bits) land (t.n_sets - 1)

(* The tag is the full physical line address; since we never need to
   reconstruct set/tag splits this is simplest and collision-free. *)
let tag_of t ~paddr = paddr lsr t.line_bits

type result = Hit | Miss of { evicted_dirty : bool; evicted : int }

(* Way search, unrolled for the associativities the platforms actually
   use.  unsafe_get is safe by construction: the arrays hold
   [n_sets * ways] entries, [set] is masked by the pow-2 [n_sets - 1]
   and [w < ways], so [base + w] cannot escape. *)
let find_way t set tag =
  let tags = t.tags in
  let base = set * t.n_ways in
  match t.n_ways with
  | 1 -> if Array.unsafe_get tags base = tag then base else -1
  | 2 ->
      if Array.unsafe_get tags base = tag then base
      else if Array.unsafe_get tags (base + 1) = tag then base + 1
      else -1
  | 4 ->
      if Array.unsafe_get tags base = tag then base
      else if Array.unsafe_get tags (base + 1) = tag then base + 1
      else if Array.unsafe_get tags (base + 2) = tag then base + 2
      else if Array.unsafe_get tags (base + 3) = tag then base + 3
      else -1
  | 8 ->
      if Array.unsafe_get tags base = tag then base
      else if Array.unsafe_get tags (base + 1) = tag then base + 1
      else if Array.unsafe_get tags (base + 2) = tag then base + 2
      else if Array.unsafe_get tags (base + 3) = tag then base + 3
      else if Array.unsafe_get tags (base + 4) = tag then base + 4
      else if Array.unsafe_get tags (base + 5) = tag then base + 5
      else if Array.unsafe_get tags (base + 6) = tag then base + 6
      else if Array.unsafe_get tags (base + 7) = tag then base + 7
      else -1
  | ways ->
      (* A plain loop, not a local recursive function: a closure here
         would allocate on every probe of the 16-way LLCs. *)
      let stop = base + ways in
      let i = ref base in
      while !i < stop && Array.unsafe_get tags !i <> tag do
        incr i
      done;
      if !i < stop then !i else -1

(* LRU victim within the ways allowed by [mask] (a bitmask over way
   indices).  The first invalid allowed way wins outright — LRU order
   among invalid ways is meaningless, so there is no reason to keep
   scanning once one is found. *)
let lru_way t set mask =
  let base = set * t.n_ways in
  let tags = t.tags and age = t.age in
  let best = ref (-1) in
  let found = ref (-1) in
  let w = ref 0 in
  while !found < 0 && !w < t.n_ways do
    (if mask land (1 lsl !w) <> 0 then begin
       let i = base + !w in
       if Array.unsafe_get tags i = -1 then found := i
       else if !best < 0 || Array.unsafe_get age i < Array.unsafe_get age !best
       then best := i
     end);
    incr w
  done;
  if !found >= 0 then !found
  else begin
    assert (!best >= 0);
    !best
  end

let touch t i =
  t.clock <- t.clock + 1;
  Array.unsafe_set t.age i t.clock

let alloc t set tag ~dirty ~mask ~obs =
  let i = lru_way t set mask in
  let old = Array.unsafe_get t.tags i in
  let evicted_dirty = old <> -1 && Array.unsafe_get t.dirty i in
  t.ev_dirty <- evicted_dirty;
  t.ev_line <- (if old = -1 then -1 else old lsl t.line_bits);
  if evicted_dirty then begin
    if obs then Tp_obs.Counter.incr_unchecked t.st_writebacks;
    t.n_dirty <- t.n_dirty - 1
  end;
  if old = -1 then t.n_valid <- t.n_valid + 1;
  Array.unsafe_set t.tags i tag;
  Array.unsafe_set t.dirty i dirty;
  if dirty then t.n_dirty <- t.n_dirty + 1;
  touch t i

(* Allocation-free access: returns [true] on hit; on miss the victim is
   left in [ev_line]/[ev_dirty] ({!last_evicted}/{!last_evicted_dirty})
   instead of a boxed [Miss] record.  One counters_on check covers
   every recording of the access. *)
let access_masked_fast t ~alloc_ways ~vaddr ~paddr ~write =
  let mask = alloc_ways land t.way_mask in
  assert (mask <> 0);
  let obs = Tp_obs.Ctl.counters_on () in
  let set = set_of t ~vaddr ~paddr in
  let tag = tag_of t ~paddr in
  let i = find_way t set tag in
  if i >= 0 then begin
    if obs then Tp_obs.Counter.incr_unchecked t.st_hits;
    touch t i;
    if write && not (Array.unsafe_get t.dirty i) then begin
      Array.unsafe_set t.dirty i true;
      t.n_dirty <- t.n_dirty + 1
    end;
    true
  end
  else begin
    if obs then Tp_obs.Counter.incr_unchecked t.st_misses;
    alloc t set tag ~dirty:write ~mask ~obs;
    false
  end

let access_fast t ~vaddr ~paddr ~write =
  access_masked_fast t ~alloc_ways:max_int ~vaddr ~paddr ~write

let last_evicted t = t.ev_line
let last_evicted_dirty t = t.ev_dirty

let access_masked t ~alloc_ways ~vaddr ~paddr ~write =
  if access_masked_fast t ~alloc_ways ~vaddr ~paddr ~write then Hit
  else Miss { evicted_dirty = t.ev_dirty; evicted = t.ev_line }

let access t ~vaddr ~paddr ~write =
  access_masked t ~alloc_ways:max_int ~vaddr ~paddr ~write

let probe t ~vaddr ~paddr =
  let set = set_of t ~vaddr ~paddr in
  find_way t set (tag_of t ~paddr) >= 0

let insert_clean_fast t ~vaddr ~paddr =
  let set = set_of t ~vaddr ~paddr in
  let tag = tag_of t ~paddr in
  let i = find_way t set tag in
  if i >= 0 then true
  else begin
    Tp_obs.Counter.incr t.st_prefetch_fills;
    alloc t set tag ~dirty:false ~mask:t.way_mask
      ~obs:(Tp_obs.Ctl.counters_on ());
    false
  end

let insert_clean t ~vaddr ~paddr =
  if insert_clean_fast t ~vaddr ~paddr then Hit
  else Miss { evicted_dirty = t.ev_dirty; evicted = t.ev_line }

(* An empty cache holds no line to purge: the inclusive LLC's snoops
   of idle cores' private caches return before probing a set. *)
let invalidate_line t ~vaddr ~paddr =
  if t.n_valid > 0 then begin
    let i = find_way t (set_of t ~vaddr ~paddr) (tag_of t ~paddr) in
    if i >= 0 then begin
      Tp_obs.Counter.incr t.st_invals;
      if t.dirty.(i) then t.n_dirty <- t.n_dirty - 1;
      t.dirty.(i) <- false;
      t.tags.(i) <- -1;
      t.n_valid <- t.n_valid - 1
    end
  end

let flush t =
  let wb = t.n_dirty in
  Tp_obs.Counter.incr t.st_flushes;
  Tp_obs.Counter.add t.st_flush_writebacks wb;
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.dirty 0 (Array.length t.dirty) false;
  Array.fill t.age 0 (Array.length t.age) 0;
  t.n_dirty <- 0;
  t.n_valid <- 0;
  wb

let state_words t =
  (3 * Array.length t.tags) + 5 + Blob.counters_words t.st

let save_state t blob off =
  let off = Blob.save_ints blob off t.tags in
  let off = Blob.save_bools blob off t.dirty in
  let off = Blob.save_ints blob off t.age in
  blob.{off} <- t.clock;
  blob.{off + 1} <- t.n_dirty;
  blob.{off + 2} <- t.n_valid;
  blob.{off + 3} <- t.ev_line;
  blob.{off + 4} <- (if t.ev_dirty then 1 else 0);
  Blob.save_counters blob (off + 5) t.st

let load_state t blob off =
  let off = Blob.load_ints blob off t.tags in
  let off = Blob.load_bools blob off t.dirty in
  let off = Blob.load_ints blob off t.age in
  t.clock <- blob.{off};
  t.n_dirty <- blob.{off + 1};
  t.n_valid <- blob.{off + 2};
  t.ev_line <- blob.{off + 3};
  t.ev_dirty <- blob.{off + 4} <> 0;
  Blob.load_counters blob (off + 5) t.st

let dirty_lines t = t.n_dirty
let valid_lines t = t.n_valid

let lines_in_set t set =
  let base = set * t.g.ways in
  let c = ref 0 in
  for w = 0 to t.g.ways - 1 do
    if t.tags.(base + w) <> -1 then incr c
  done;
  !c

let capacity_lines t = t.n_sets * t.g.ways

let pp_geometry ppf g =
  Format.fprintf ppf "%dKiB %d-way %dB-line (%d sets, %d colours, %s-indexed)"
    (g.size / 1024) g.ways g.line (sets g) (colours g)
    (match g.indexing with Virtual -> "virtually" | Physical -> "physically")
