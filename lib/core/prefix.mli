(** Checkpointed simulation prefixes: boot once, fork many.

    A prefix is the part of a simulation that several runs share — a
    host booted to N guests, a warmed-up host, a cluster with all its
    guests running — ending at a quiesce point (no parked effect
    continuation; see {!Lightvm_sim.Checkpoint}). Its value, the
    ['root], is the model state the rest of the simulation (the
    {e suffix}) continues from.

    {!run} is the one way to execute prefix + suffix. With
    [~snapshot:false] it runs them as one unbroken simulation — the
    reference the checkpoint contract is stated against. With
    [~snapshot:true] it simulates the prefix at most once per key (per
    process, across {!Lightvm_sim.Pool} worker domains), freezes it,
    and runs the suffix on a fresh thawed copy: forks share no mutable
    state and render bit-identically to the unbroken run. The root type
    is fixed by the ['root t] value, so an image is only ever thawed at
    the type it was frozen at. *)

type shape =
  | Plain  (** one heap: {!Lightvm_sim.Engine.run} *)
  | Partitioned of { jobs : int; partitions : int }
      (** {!Lightvm_sim.Engine.run_partitioned} with [partitions] host
          partitions on up to [jobs] worker domains, lookahead
          {!lookahead} *)

val lookahead : float
(** The partitioned engine's conservative-synchronization lookahead:
    the modeled top-of-rack switch latency. Every cross-partition
    interaction in the model is a network hop, so it always carries at
    least this much simulated delay. *)

type 'root t

val boot :
  key:string -> describe:string -> ?shape:shape -> (unit -> 'root) -> 'root t
(** [boot ~key ~describe body]: a prefix simulated from scratch on an
    engine of [shape] (default {!Plain}); [body] runs as the initial
    process, in partition 0, and returns the root at a quiesce point.
    [key] names the cached image (and a snapshot file's config); it
    must identify the prefix's state. *)

val extend :
  key:string -> describe:string -> 'root t -> ('root -> 'root) -> 'root t
(** [extend ~key ~describe parent step]: [parent] continued by [step]
    in the same simulation, on the parent's shape. Its image is built
    by resuming the parent's, so a chain (the scale family's 2000 ->
    5000 -> 10,000 guests) simulates each boundary once. *)

val key : _ t -> string

val describe : _ t -> string

val run : snapshot:bool -> 'root t -> ('root -> 'a) -> float * 'a
(** [run ~snapshot p suffix] returns [(prefix_seconds, result)] of the
    simulation that runs [p] and then [suffix] on its root, inside the
    simulation; the engine stops when [suffix] returns.
    [prefix_seconds] is the wall-clock time spent building or fetching
    and thawing the image ([0.] when [snapshot] is [false]). Raises
    [Failure] if the prefix cannot be frozen (it did not quiesce). *)

val resume : 'root t -> string -> ('root -> 'a) -> ('a, string) result
(** [resume p bytes suffix]: {!run}'s snapshot path from image bytes
    obtained elsewhere (a snapshot file whose config is [key p]).
    [Error] if the bytes do not decode. *)

val save : _ t -> path:string -> (unit, string) result
(** Build (or fetch) the image and write it to [path] with the
    versioned {!Lightvm_sim.Checkpoint} header, config [key]. *)

val image : _ t -> string
(** The frozen image, built at most once per key. Raises [Failure] if
    the prefix does not quiesce. *)

val reset : unit -> unit
(** Drop every cached image (tests and cold-path benchmarks). Must not
    race in-flight builds. *)
