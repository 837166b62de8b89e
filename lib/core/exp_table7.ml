open Tp_kernel

type result = {
  platform : string;
  clone_us : float;
  destroy_us : float;
  fork_exec_us : float;
}

let page = Tp_hw.Defs.page_size

(* A conventional process image: text+data+libraries, far larger than
   a microkernel image. *)
let process_image_bytes = 768 * 1024

(* fork+exec: create an address space, copy the image, and populate a
   page table entry per page. *)
let fork_exec_cost b dom =
  let sys = b.Boot.sys in
  let p = System.platform sys in
  let m = System.machine sys in
  let line = p.Tp_hw.Platform.line in
  let pages = process_image_bytes / page in
  let src = Boot.alloc_pages b dom ~pages in
  let dst = Boot.alloc_pages b dom ~pages in
  let vs = dom.Boot.dom_vspace in
  let t0 = System.now sys ~core:0 in
  (* exec: read the image in and write the new address space. *)
  for i = 0 to (process_image_bytes / line) - 1 do
    let sv = src + (i * line) and dv = dst + (i * line) in
    ignore
      (Tp_hw.Machine.access m ~core:0 ~asid:vs.Types.vs_asid ~global:false
         ~llc_ways:Tp_hw.Machine.all_ways ~pt_root:Tp_hw.Machine.no_walk
         ~pt_leaf:Tp_hw.Machine.no_walk ~vaddr:sv
         ~paddr:(System.translate vs sv) ~kind:Tp_hw.Defs.Read);
    ignore
      (Tp_hw.Machine.access m ~core:0 ~asid:vs.Types.vs_asid ~global:false
         ~llc_ways:Tp_hw.Machine.all_ways ~pt_root:Tp_hw.Machine.no_walk
         ~pt_leaf:Tp_hw.Machine.no_walk ~vaddr:dv
         ~paddr:(System.translate vs dv) ~kind:Tp_hw.Defs.Write)
  done;
  (* Page-table population: a PTE write per page plus kernel metadata. *)
  for i = 0 to pages - 1 do
    let pte = 0x0200_0000 + (i * 8) in
    ignore
      (Tp_hw.Machine.access m ~core:0 ~asid:0 ~global:true
         ~llc_ways:Tp_hw.Machine.all_ways ~pt_root:Tp_hw.Machine.no_walk
         ~pt_leaf:Tp_hw.Machine.no_walk ~vaddr:pte ~paddr:pte
         ~kind:Tp_hw.Defs.Write)
  done;
  (* Syscall overheads of fork + execve + loader fixups. *)
  Tp_hw.Machine.add_cycles m ~core:0 (Syscalls.trap_cost * 12);
  System.now sys ~core:0 - t0

let run q p =
  let reps = max 3 (Quality.repeats q / 10) in
  let clones = Array.make reps 0.0 in
  let destroys = Array.make reps 0.0 in
  let forks = Array.make reps 0.0 in
  for r = 0 to reps - 1 do
    let b = Boot.boot ~platform:p ~config:(Config.protected_ p) ~domains:1 () in
    let sys = b.Boot.sys in
    let dom = b.Boot.domains.(0) in
    let kmem = Retype.retype_kernel_memory dom.Boot.dom_pool ~platform:p in
    let t0 = System.now sys ~core:0 in
    let cap = Clone.clone sys ~core:0 ~src:b.Boot.master ~kmem in
    let t1 = System.now sys ~core:0 in
    Clone.destroy sys ~core:0 cap;
    let t2 = System.now sys ~core:0 in
    clones.(r) <- Tp_hw.Platform.cycles_to_us p (t1 - t0);
    destroys.(r) <- Tp_hw.Platform.cycles_to_us p (t2 - t1);
    forks.(r) <- Tp_hw.Platform.cycles_to_us p (fork_exec_cost b dom)
  done;
  {
    platform = p.Tp_hw.Platform.name;
    clone_us = Tp_util.Stats.mean clones;
    destroy_us = Tp_util.Stats.mean destroys;
    fork_exec_us = Tp_util.Stats.mean forks;
  }
