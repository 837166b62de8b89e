(** Content-addressed, crash-safe result store.

    The campaign service ({!Tp_serve}) memoizes experiment results on
    disk so a million-trial sweep is incremental: each trial's result
    is filed under the digest of everything that determines it —
    [(code rev, platform, config, channel, seed, spec)] — and a repeat
    query is answered from the store in microseconds.

    Crash safety is the defining property.  Completed entries survive
    [kill -9] at {e any} instruction of a later write:

    - object files are written to a staging area, fsync'd, and
      atomically renamed into place — a reader never sees a torn
      object;
    - commits are recorded in an append-only {e journal} (content
      digest + length per entry), fsync'd after the rename; the
      journal, not the object directory, is the source of truth;
    - {!open_} replays and fscks the journal: a torn tail (the line a
      crash cut short) is dropped, entries whose object is missing or
      fails its digest are dropped and quarantined, orphan objects
      (renamed but never journalled — the crash window between rename
      and commit) are deleted, staging litter is cleared, and the
      journal is rewritten compacted via the same atomic-rename path.

    The write path crosses the {!Tp_fault} points [store_write],
    [store_fsync] and [store_rename], so the fail-at-step-N driver can
    prove the crash-consistency claim the same way PR 1 did for kernel
    paths (see {!Sweep}). *)

type t

type fsck_report = {
  f_entries : int;  (** live entries after replay *)
  f_torn : int;  (** malformed/truncated journal lines dropped *)
  f_missing : int;  (** journalled entries whose object was gone *)
  f_corrupt : int;  (** journalled entries whose object failed its digest *)
  f_orphans : int;  (** un-journalled objects removed *)
  f_staging : int;  (** staging (tmp) files removed *)
}

val open_ : dir:string -> t
(** Open (creating directories as needed) and fsck.  Safe to call on a
    directory a crashed writer left in any state.
    @raise Sys_error when the directory cannot be created. *)

val close : t -> unit
(** Release the journal handle.  Using [t] afterwards raises. *)

val dir : t -> string

val mkdir_p : string -> unit
(** Create a directory and any missing parents (mode 0755). *)

val fsck_report : t -> fsck_report
(** What {!open_} found and repaired. *)

val key : code_rev:string -> parts:string list -> string
(** Cache key: hex digest of the NUL-joined [code_rev :: parts].
    Stable across processes; changing any part changes the key. *)

val mem : t -> string -> bool
val count : t -> int
val keys : t -> string list
(** Live keys, sorted. *)

val find : t -> string -> string option
(** Contents of a committed entry; verifies the journalled digest on
    read and returns [None] (dropping the entry) on a mismatch, so bit
    rot surfaces as a recomputable miss, never as wrong data. *)

val content_digest : t -> string -> string option
(** The journalled content digest (hex), without reading the object. *)

val put : t -> key:string -> string -> unit
(** Commit [data] under [key]: stage + fsync + rename + journal +
    fsync.  Idempotent — a repeat [put] of the same key is a no-op
    (the store is content-addressed by inputs; the first commit wins).
    @raise Invalid_argument on a malformed key. *)

(** {1 Fault points} *)

val point_write : string  (** ["store_write"] *)

val point_fsync : string  (** ["store_fsync"] *)

val point_rename : string  (** ["store_rename"] *)
