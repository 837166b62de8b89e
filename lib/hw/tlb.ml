type geometry = { entries : int; ways : int }

type t = {
  g : geometry;
  n_sets : int;
  vpns : int array; (* -1 = invalid *)
  asids : int array;
  globals : bool array;
  age : int array;
  mutable clock : int;
  mutable n_valid : int;
  (* Observability only: never read by the model itself. *)
  st : Tp_obs.Counter.set;
  st_hits : Tp_obs.Counter.t;
  st_misses : Tp_obs.Counter.t;
  st_flushes : Tp_obs.Counter.t;
  st_asid_flushes : Tp_obs.Counter.t;
}

let create ?(name = "tlb") g =
  assert (Defs.is_pow2 g.entries && Defs.is_pow2 g.ways);
  assert (g.entries >= g.ways);
  let n_sets = g.entries / g.ways in
  let st = Tp_obs.Counter.make_set name in
  let st_hits = Tp_obs.Counter.counter st "hits" in
  let st_misses = Tp_obs.Counter.counter st "misses" in
  let st_flushes = Tp_obs.Counter.counter st "flushes" in
  let st_asid_flushes = Tp_obs.Counter.counter st "asid_flushes" in
  {
    g;
    n_sets;
    vpns = Array.make g.entries (-1);
    asids = Array.make g.entries (-1);
    globals = Array.make g.entries false;
    age = Array.make g.entries 0;
    clock = 0;
    n_valid = 0;
    st;
    st_hits;
    st_misses;
    st_flushes;
    st_asid_flushes;
  }

let counters t = t.st

let geometry t = t.g
let sets t = t.n_sets

type result = Hit | Miss

let[@inline] set_of t vpn = vpn land (t.n_sets - 1)

(* unsafe_get is in bounds by construction: the arrays hold
   [n_sets * ways] entries, [set] is masked by the pow-2 [n_sets - 1]
   and [w < ways]. *)
let[@inline] find t ~asid ~vpn =
  let base = set_of t vpn * t.g.ways in
  let vpns = t.vpns and globals = t.globals and asids = t.asids in
  let stop = base + t.g.ways in
  let i = ref base in
  while
    !i < stop
    && not
         (Array.unsafe_get vpns !i = vpn
         && (Array.unsafe_get globals !i || Array.unsafe_get asids !i = asid))
  do
    incr i
  done;
  if !i < stop then !i else -1

(* First invalid way wins outright (LRU among invalids is
   meaningless); otherwise lowest age. *)
let lru_way t set =
  let base = set * t.g.ways in
  let vpns = t.vpns and age = t.age in
  if Array.unsafe_get vpns base = -1 then base
  else begin
    let best = ref base in
    let found = ref (-1) in
    let w = ref 1 in
    while !found < 0 && !w < t.g.ways do
      let i = base + !w in
      if Array.unsafe_get vpns i = -1 then found := i
      else if Array.unsafe_get age i < Array.unsafe_get age !best then best := i;
      incr w
    done;
    if !found >= 0 then !found else !best
  end

let[@inline] access t ~asid ~vpn ~global =
  let i = find t ~asid ~vpn in
  t.clock <- t.clock + 1;
  if i >= 0 then begin
    Tp_obs.Counter.incr t.st_hits;
    Array.unsafe_set t.age i t.clock;
    Hit
  end
  else begin
    Tp_obs.Counter.incr t.st_misses;
    let i = lru_way t (set_of t vpn) in
    if Array.unsafe_get t.vpns i = -1 then t.n_valid <- t.n_valid + 1;
    Array.unsafe_set t.vpns i vpn;
    Array.unsafe_set t.asids i asid;
    Array.unsafe_set t.globals i global;
    Array.unsafe_set t.age i t.clock;
    Miss
  end

let probe t ~asid ~vpn = find t ~asid ~vpn >= 0

let flush_all t =
  Tp_obs.Counter.incr t.st_flushes;
  Array.fill t.vpns 0 (Array.length t.vpns) (-1);
  Array.fill t.globals 0 (Array.length t.globals) false;
  t.n_valid <- 0

let flush_asid t asid =
  Tp_obs.Counter.incr t.st_asid_flushes;
  Array.iteri
    (fun i vpn ->
      if vpn <> -1 && (not t.globals.(i)) && t.asids.(i) = asid then begin
        t.vpns.(i) <- -1;
        t.n_valid <- t.n_valid - 1
      end)
    t.vpns

let valid_entries t = t.n_valid

let state_words t =
  (4 * Array.length t.vpns) + 2 + Blob.counters_words t.st

let save_state t blob off =
  let off = Blob.save_ints blob off t.vpns in
  let off = Blob.save_ints blob off t.asids in
  let off = Blob.save_bools blob off t.globals in
  let off = Blob.save_ints blob off t.age in
  blob.{off} <- t.clock;
  blob.{off + 1} <- t.n_valid;
  Blob.save_counters blob (off + 2) t.st

let load_state t blob off =
  let off = Blob.load_ints blob off t.vpns in
  let off = Blob.load_ints blob off t.asids in
  let off = Blob.load_bools blob off t.globals in
  let off = Blob.load_ints blob off t.age in
  t.clock <- blob.{off};
  t.n_valid <- blob.{off + 1};
  Blob.load_counters blob (off + 2) t.st
