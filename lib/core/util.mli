(** Small helpers shared across the tree. *)

val contains : sub:string -> string -> bool
(** [contains ~sub s] — does [s] contain [sub] as a substring? Linear-time
    (KMP); [sub = ""] is contained in everything. The single home for the
    substring test the result oracles and the codegen linter all need. *)

val write_file_atomic : string -> (out_channel -> 'a) -> 'a
(** [write_file_atomic path write] runs [write] on a fresh
    [<path>.tmp.<pid>] beside [path], flushes and [fsync]s it, then renames
    it over [path]. Readers see the old file or the new one, never a torn
    one, and a process that still has the old file mapped keeps its pages:
    rewriting the file in place would truncate them from under the
    mapping (a [SIGBUS] on the next page touch). On an exception the
    temporary is removed and the exception re-raised. *)

val log_reporter : ?app:out_channel -> ?dst:out_channel -> unit -> Logs.reporter
(** [Logs_fmt.reporter]'s output (same header, same text) made safe to
    call from several domains at once: each message is formatted into a
    private buffer and written to [dst] (default [stderr]; [app], default
    [stdout], for [Logs.App]) in one write under a lock, so lines never
    interleave and no formatter is shared. Every CLI subcommand installs
    this one. *)
