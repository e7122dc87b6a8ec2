(** Hand-written lexer for the [.japi] language.

    Handles [//] line comments, [/* ... */] block comments (non-nesting, like
    Java), and tracks line/column positions for error reporting.

    The lexer is a pull cursor: it scans one token ahead of the parser and
    remembers where the previous one started, so no token sequence is ever
    materialized. *)

type cursor = private {
  file : string;
  src : string;
  mutable i : int;  (** next unscanned byte *)
  mutable line : int;  (** line of byte [i] *)
  mutable bol : int;  (** offset of the first byte of [line] *)
  mutable kind : Token.kind;  (** the current token *)
  mutable tline : int;  (** its 1-based line *)
  mutable tcol : int;  (** its 1-based column *)
  mutable prev_line : int;  (** position of the token before it *)
  mutable prev_col : int;
}

val cursor : file:string -> string -> cursor
(** A cursor on the first token of the source.
    @raise Error.E if that token cannot be scanned. *)

val advance : cursor -> unit
(** Step to the next token; a no-op at {!Token.Eof}, so the previous-token
    position still names the last real token there.
    @raise Error.E on an unexpected character or unterminated comment. *)

val drain : cursor -> unit
(** Scan to the end of input. A caller about to report a syntax error drains
    first, so a lexical error anywhere in the file takes precedence — the
    file is lexically checked as a whole, as if tokenized up front.
    @raise Error.E on the first lexical error past the current token. *)

val tokenize : file:string -> string -> Token.t array
(** The whole token stream, drained into an array. The result always ends
    with a single {!Token.Eof} token.
    @raise Error.E on an unexpected character or unterminated comment. *)
