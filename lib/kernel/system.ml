type percore = {
  mutable cur_kernel : Types.kimage;
  mutable cur_thread : Types.tcb option;
  mutable slice_end : int;
  mutable last_tick_start : int;
}

type t = {
  machine : Tp_hw.Machine.t;
  platform : Tp_hw.Platform.t;
  cfg : Config.t;
  phys : Phys.t;
  sched : Sched.t;
  irq : Irq.t;
  shared_paddr : int;
  shared_vaddr : int;
  initial_kernel : Types.kimage;
  mutable kernels : Types.kimage list;
  mutable tcbs : Types.tcb list;
  mutable asid_free : int list;
  cores : percore array;
  mutable shared_audit :
    (Layout.shared_region -> off:int -> len:int -> kind:Tp_hw.Defs.access_kind -> unit)
    option;
  mutable cat_masks : int array option;
}

let max_asids = 256

let mk_idle_tcb ki core =
  {
    Types.t_id = Types.fresh_id ();
    t_prio = 0;
    t_state = Types.Ts_ready;
    t_vspace = None;
    t_kernel = Some ki;
    t_core = core;
      t_sc = None;
    t_domain = -1;
    t_frames = [];
    t_is_idle = true;
  }

let create platform cfg =
  let machine = Tp_hw.Machine.create platform in
  let phys = Phys.create platform in
  let img_frames = Layout.image_frames platform in
  let boot_frames = img_frames + Layout.shared_frames in
  let base = Phys.reserve_boot phys ~frames:boot_frames in
  let shared_paddr = Phys.frame_addr (base + img_frames) in
  (* The kernel window maps the image at the canonical base and the
     shared block well past the image area. *)
  let shared_vaddr = Layout.shared_vaddr in
  let initial_kernel =
    {
      Types.ki_id = Types.fresh_id ();
      ki_state = Types.Ki_active;
      ki_asid = 0;
      ki_is_initial = true;
      ki_frames = Array.init img_frames (fun i -> base + i);
      ki_idle = None;
      ki_running_on = Array.make platform.Tp_hw.Platform.cores false;
      ki_irqs = [];
      ki_pad_cycles = cfg.Config.pad_cycles;
    }
  in
  initial_kernel.Types.ki_idle <- Some (mk_idle_tcb initial_kernel 0);
  if cfg.Config.disable_prefetcher then
    for c = 0 to platform.Tp_hw.Platform.cores - 1 do
      Tp_hw.Machine.set_prefetcher_enabled machine ~core:c false
    done;
  {
    machine;
    platform;
    cfg;
    phys;
    sched = Sched.create ~cores:platform.Tp_hw.Platform.cores;
    irq = Irq.create ~cores:platform.Tp_hw.Platform.cores;
    shared_paddr;
    shared_vaddr;
    initial_kernel;
    kernels = [ initial_kernel ];
    tcbs = [];
    asid_free = List.init (max_asids - 1) (fun i -> i + 1);
    shared_audit = None;
    cat_masks = None;
    cores =
      Array.init platform.Tp_hw.Platform.cores (fun c ->
          {
            cur_kernel = initial_kernel;
            cur_thread = None;
            slice_end = 0;
            last_tick_start = Tp_hw.Machine.cycles machine ~core:c;
          });
  }

let machine t = t.machine
let platform t = t.platform
let cfg t = t.cfg
let phys t = t.phys
let sched t = t.sched
let irq t = t.irq
let initial_kernel t = t.initial_kernel
let kernels t = t.kernels
let register_kernel t ki = t.kernels <- ki :: t.kernels

let unregister_kernel t ki =
  t.kernels <- List.filter (fun k -> k.Types.ki_id <> ki.Types.ki_id) t.kernels

let[@inline] per_core t c = t.cores.(c)
let n_colours t = Phys.n_colours t.phys

let () = List.iter Tp_fault.Fault.register [ "asid.alloc"; "asid.free" ]

let alloc_asid t =
  Tp_fault.Fault.hit "asid.alloc";
  match t.asid_free with
  | [] -> raise (Types.Kernel_error Types.Out_of_asids)
  | a :: rest ->
      t.asid_free <- rest;
      a

let free_asid t a =
  Tp_fault.Fault.hit "asid.free";
  (* ASID 0 belongs to the initial kernel and is never allocatable;
     re-freeing a free ASID would corrupt the free list (the same ASID
     handed out twice aliases two protection domains). *)
  if a <= 0 || a >= max_asids || List.mem a t.asid_free then
    raise (Types.Kernel_error Types.Double_free);
  t.asid_free <- a :: t.asid_free

let free_asid_count t = List.length t.asid_free
let asid_is_free t a = List.mem a t.asid_free

let register_tcb t tcb = t.tcbs <- tcb :: t.tcbs
let all_tcbs t = t.tcbs

let now t ~core = Tp_hw.Machine.cycles t.machine ~core

let kernel_mappings_global t = not t.cfg.Config.clone_kernel

let current_asid t ~core =
  match t.cores.(core).cur_thread with
  | Some { Types.t_vspace = Some vs; _ } -> vs.Types.vs_asid
  | Some _ | None -> t.cores.(core).cur_kernel.Types.ki_asid

type image_region = Text | Stack | Data | Flushbuf

let region_off t region =
  let lay = Layout.image_layout t.platform in
  match region with
  | Text -> lay.Layout.text_off
  | Stack -> lay.Layout.stack_off
  | Data -> lay.Layout.data_off
  | Flushbuf -> lay.Layout.flushbuf_off

(* Physical address of a byte offset into an image: image frames may be
   non-contiguous (coloured pools), so resolve through the frame list. *)
let image_pa ki ~off =
  let page = Tp_hw.Defs.page_size in
  Phys.frame_addr ki.Types.ki_frames.(off / page) + (off mod page)

let image_region_base t ki region =
  let roff = region_off t region in
  (Layout.kernel_base_vaddr + roff, image_pa ki ~off:roff)

let touch_lines t ~core ~kind lines =
  let asid = current_asid t ~core in
  let global = kernel_mappings_global t in
  List.fold_left
    (fun acc (vaddr, paddr) ->
      acc
      + Tp_hw.Machine.access t.machine ~core ~asid ~global
          ~llc_ways:Tp_hw.Machine.all_ways ~pt_root:Tp_hw.Machine.no_walk
          ~pt_leaf:Tp_hw.Machine.no_walk ~vaddr ~paddr ~kind)
    0 lines

let touch_image t ~core ki ~region ~off ~len ~kind =
  let roff = region_off t region in
  let line = t.platform.Tp_hw.Platform.line in
  let first = (roff + off) / line * line in
  let last = (roff + off + len - 1) / line * line in
  let rec go o acc =
    if o > last then acc
    else begin
      let lat =
        touch_lines t ~core ~kind
          [ (Layout.kernel_base_vaddr + o, image_pa ki ~off:o) ]
      in
      go (o + line) (acc + lat)
    end
  in
  go first 0

let set_shared_audit t hook = t.shared_audit <- hook

let shared_audit t = t.shared_audit

let set_cat_masks t masks = t.cat_masks <- masks

let cat_masks t = t.cat_masks

let[@inline] cat_mask_of_domain t dom =
  match t.cat_masks with
  | Some a when dom >= 0 && dom < Array.length a -> a.(dom)
  | Some _ | None -> max_int

let touch_shared t ~core region ?(off = 0) ?len ~kind () =
  let len =
    match len with Some l -> l | None -> Layout.shared_region_size region
  in
  (match t.shared_audit with
  | Some hook -> hook region ~off ~len ~kind
  | None -> ());
  let roff = Layout.shared_region_off region in
  let lines =
    Layout.lines ~line:t.platform.Tp_hw.Platform.line ~base_vaddr:t.shared_vaddr
      ~base_paddr:t.shared_paddr ~off:(roff + off) ~len
  in
  touch_lines t ~core ~kind lines

let shared_base t = (t.shared_vaddr, t.shared_paddr)

let pt_index vpn = vpn lsr 9 (* 512 8-byte entries per 4 KiB table *)

(* Fill the translation cache for [vpn]: its frame plus the root and
   leaf page-table entries a hardware walk of it reads.  This is the one
   description of a walk; the machine reads the lines holding those
   entries on a TLB miss, and the replay recorder stores them. *)
let fill_translation vs vpn =
  (* [find] rather than [find_opt]: no [Some] per refill. *)
  match Types.Itbl.find vs.Types.vs_pages vpn with
  | exception Not_found -> raise (Types.Kernel_error Types.Invalid_capability)
  | frame ->
      let pti = pt_index vpn in
      vs.Types.vs_tc_vpn <- vpn;
      vs.Types.vs_tc_frame_pa <- Phys.frame_addr frame;
      vs.Types.vs_tc_root_pte <-
        Phys.frame_addr vs.Types.vs_root_pt + ((pti land 511) * 8);
      vs.Types.vs_tc_leaf_pte <-
        (match Types.Itbl.find vs.Types.vs_leaf_pts pti with
        | leaf -> Phys.frame_addr leaf + ((vpn land 511) * 8)
        | exception Not_found -> -1)

let[@inline] translate vs vaddr =
  let vpn = Tp_hw.Defs.page_of vaddr in
  if vpn <> vs.Types.vs_tc_vpn then fill_translation vs vpn;
  vs.Types.vs_tc_frame_pa + Tp_hw.Defs.page_offset vaddr

let unmap_page vs ~vpn =
  Types.Itbl.remove vs.Types.vs_pages vpn;
  vs.Types.vs_tc_vpn <- -1

let unmap_all vs =
  Types.Itbl.reset vs.Types.vs_pages;
  vs.Types.vs_tc_vpn <- -1

let map_page _t vs ~pt_alloc ~vpn ~frame =
  assert (not (Types.Itbl.mem vs.Types.vs_pages vpn));
  let pti = pt_index vpn in
  if not (Types.Itbl.mem vs.Types.vs_leaf_pts pti) then begin
    match pt_alloc with
    | Some alloc -> Types.Itbl.replace vs.Types.vs_leaf_pts pti (alloc ())
    | None -> raise (Types.Kernel_error Types.Invalid_address)
  end;
  Types.Itbl.replace vs.Types.vs_pages vpn frame

let[@inline] pt_line t pte =
  if pte < 0 then Tp_hw.Machine.no_walk
  else pte land lnot (t.platform.Tp_hw.Platform.line - 1)

let[@inline] walk_root_line t vs = pt_line t vs.Types.vs_tc_root_pte
let[@inline] walk_leaf_line t vs = pt_line t vs.Types.vs_tc_leaf_pte

let[@inline] user_access t ~core tcb ~vaddr ~kind =
  match tcb.Types.t_vspace with
  | None -> raise (Types.Kernel_error Types.Invalid_capability)
  | Some vs ->
      let paddr = translate vs vaddr in
      Tp_hw.Machine.access t.machine ~core ~asid:vs.Types.vs_asid ~global:false
        ~llc_ways:(cat_mask_of_domain t tcb.Types.t_domain)
        ~pt_root:(walk_root_line t vs) ~pt_leaf:(walk_leaf_line t vs) ~vaddr
        ~paddr ~kind
