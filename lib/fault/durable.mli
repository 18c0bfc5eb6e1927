(** Crash-safe line files: the one write–fsync–rename discipline behind
    the campaign journals ({!Journal}), the serve layer's job queue and
    its served summaries.

    A file is only ever created or rewritten whole: its lines go to
    [PATH.tmp], which is fsync'd, renamed over [PATH], and the
    directory is fsync'd, so a kill leaves either the old file or the
    new one, never a prefix.  Lines appended afterwards are fsync'd in
    batches.  {!load} reads such a file back under one torn-tail rule.

    Failure policy: a failed write, flush, file fsync or rename raises
    ([Sys_error] or [Unix.Unix_error]).  Only the directory fsync is
    best-effort, because some filesystems reject it. *)

type appender
(** An open file taking appended lines.  Domain-safe: {!append} and
    {!close} take an internal lock. *)

val start : sync_every:int -> string -> string list -> appender
(** [start ~sync_every path lines] replaces [path] atomically with
    [lines] (each newline-terminated) and returns an appender on it
    that fsyncs every [sync_every] appended lines.  A [PATH.tmp] left
    by an earlier failure is overwritten and consumed. *)

val append : appender -> string -> unit
(** Append one line.  Raises [Invalid_argument] after {!close}. *)

val close : appender -> unit
(** Fsync the lines not yet synced and close.  Idempotent. *)

val write_file : string -> string list -> unit
(** Replace a file atomically with [lines]: {!start} then {!close}. *)

val load :
  string ->
  header:(string -> ('h, string) result) ->
  record:(string -> ('r, string) result) ->
  ('h * 'r list, string) result
(** Parse a file written through this module: its first line with
    [header], every later line with [record].  A crash mid-append
    leaves a torn tail, so the unterminated remainder after the last
    newline is dropped, and so is a last complete line that does not
    parse.  An empty file, a bad header or a bad line before the last
    is an [Error] naming the path and line number. *)
