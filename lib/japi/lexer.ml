let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = '$'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')

type cursor = {
  file : string;
  src : string;
  mutable i : int;
  mutable line : int;
  mutable bol : int;
  mutable kind : Token.kind;
  mutable tline : int;
  mutable tcol : int;
  mutable prev_line : int;
  mutable prev_col : int;
}

(* Columns are byte offsets from the start of the line, so only newlines
   need bookkeeping: [bol] is the offset just past the last '\n' seen. *)
let newline cur i =
  cur.line <- cur.line + 1;
  cur.bol <- i + 1

let punct = function
  | '{' -> Token.Lbrace
  | '}' -> Token.Rbrace
  | '(' -> Token.Lparen
  | ')' -> Token.Rparen
  | ';' -> Token.Semi
  | ',' -> Token.Comma
  | '.' -> Token.Dot
  | '[' -> Token.Lbracket
  | ']' -> Token.Rbracket
  | '@' -> Token.At
  | _ -> Token.Eof

(* Scan the next token into [kind]/[tline]/[tcol], skipping blanks and
   comments. *)
let rec scan cur =
  let src = cur.src in
  let n = String.length src in
  let i = ref cur.i in
  while
    !i < n
    &&
    match String.unsafe_get src !i with
    | ' ' | '\t' | '\r' -> true
    | '\n' ->
        newline cur !i;
        true
    | _ -> false
  do
    incr i
  done;
  let i = !i in
  cur.i <- i;
  cur.tline <- cur.line;
  cur.tcol <- i - cur.bol + 1;
  if i >= n then cur.kind <- Token.Eof
  else
    let c = String.unsafe_get src i in
    if c = '/' && i + 1 < n && src.[i + 1] = '/' then begin
      let j = ref (i + 2) in
      while !j < n && String.unsafe_get src !j <> '\n' do
        incr j
      done;
      cur.i <- !j;
      scan cur
    end
    else if c = '/' && i + 1 < n && src.[i + 1] = '*' then begin
      let line = cur.tline and col = cur.tcol in
      cur.i <- i + 2;
      let closed = ref false in
      while (not !closed) && cur.i < n do
        let c = String.unsafe_get src cur.i in
        if c = '*' && cur.i + 1 < n && src.[cur.i + 1] = '/' then begin
          cur.i <- cur.i + 2;
          closed := true
        end
        else begin
          if c = '\n' then newline cur cur.i;
          cur.i <- cur.i + 1
        end
      done;
      if not !closed then
        Error.fail ~file:cur.file ~line ~col "unterminated block comment";
      scan cur
    end
    else if is_ident_start c then begin
      let j = ref (i + 1) in
      while !j < n && is_ident_char (String.unsafe_get src !j) do
        incr j
      done;
      cur.i <- !j;
      let word = String.sub src i (!j - i) in
      cur.kind <-
        (match Token.keyword_of_ident word with
        | Some kw -> kw
        | None -> Token.Ident word)
    end
    else
      match punct c with
      | Token.Eof ->
          Error.fail ~file:cur.file ~line:cur.tline ~col:cur.tcol
            (Printf.sprintf "unexpected character '%c'" c)
      | k ->
          cur.i <- i + 1;
          cur.kind <- k

let cursor ~file src =
  let cur =
    {
      file;
      src;
      i = 0;
      line = 1;
      bol = 0;
      kind = Token.Eof;
      tline = 1;
      tcol = 1;
      prev_line = 1;
      prev_col = 1;
    }
  in
  scan cur;
  cur

let at_eof cur = match cur.kind with Token.Eof -> true | _ -> false

let advance cur =
  if not (at_eof cur) then begin
    cur.prev_line <- cur.tline;
    cur.prev_col <- cur.tcol;
    scan cur
  end

let drain cur =
  while not (at_eof cur) do
    advance cur
  done

let tokenize ~file src =
  let cur = cursor ~file src in
  let toks = ref [] in
  while not (at_eof cur) do
    toks := { Token.kind = cur.kind; line = cur.tline; col = cur.tcol } :: !toks;
    advance cur
  done;
  Array.of_list
    (List.rev ({ Token.kind = Token.Eof; line = cur.tline; col = cur.tcol } :: !toks))
