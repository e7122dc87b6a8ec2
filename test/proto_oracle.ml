(* Reference JSON encoder: Proto's encoder as it was before string escaping
   copied runs — one closure call and one Buffer.add_char per byte, the
   \u escape spelled with sprintf. Kept as the byte-for-byte oracle for
   Proto.to_string; it has no [Raw] case because the oracle renders typed
   trees only. *)

module Proto = Prospector_server.Proto

let escape_into buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let float_literal f =
  let s = Printf.sprintf "%.15g" f in
  let s = if float_of_string s = f then s else Printf.sprintf "%.17g" f in
  if
    String.contains s '.' || String.contains s 'e' || String.contains s 'E'
    || String.contains s 'n'
  then s
  else s ^ ".0"

let rec encode buf = function
  | Proto.Null -> Buffer.add_string buf "null"
  | Proto.Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Proto.Int i -> Buffer.add_string buf (string_of_int i)
  | Proto.Float f ->
      if Float.is_finite f then Buffer.add_string buf (float_literal f)
      else Buffer.add_string buf "null"
  | Proto.Str s ->
      Buffer.add_char buf '"';
      escape_into buf s;
      Buffer.add_char buf '"'
  | Proto.Arr xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_string buf ", ";
          encode buf x)
        xs;
      Buffer.add_char buf ']'
  | Proto.Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ", ";
          Buffer.add_char buf '"';
          escape_into buf k;
          Buffer.add_string buf "\": ";
          encode buf v)
        fields;
      Buffer.add_char buf '}'
  | Proto.Raw _ -> invalid_arg "Proto_oracle.to_string: Raw has no oracle spelling"

let to_string j =
  let buf = Buffer.create 256 in
  encode buf j;
  Buffer.contents buf
