(** The request path that [Mps_serve.Server]'s response memo replaced,
    kept with the tests as the reference its responses are checked
    against: every request parses its inline graph text, runs its
    command through the public [Mps_serve.Session] API and builds its
    response as one [Json.t] that [Json.to_line] prints.  Nothing is
    memoized, so a repeated request recomputes its answer, and [stats]
    reports requests, graphs, eval-cache totals and classifications
    only. *)

val handle_line : Mps_serve.Session.t -> string -> string
(** One request line to one response line, as [Server.handle_line]
    answered before the memo. *)
