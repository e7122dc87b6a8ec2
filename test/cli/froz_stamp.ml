(* Rewrite the format version of a saved .froz snapshot, leaving everything
   else in place — how the tests make a file in an older format without
   keeping an older binary around. The version is the first field of the
   Marshal'd cold section that follows the 16-byte magic and its 8-byte
   length; the page-aligned segments after it are copied unchanged. *)
let set_version path version =
  let full = In_channel.with_open_bin path In_channel.input_all in
  let mlen = 16 in
  let blen = Int64.to_int (String.get_int64_le full mlen) in
  let cold : Obj.t = Marshal.from_string full (mlen + 8) in
  Obj.set_field cold 0 (Obj.repr version);
  let blob = Marshal.to_string cold [] in
  let len8 = Bytes.create 8 in
  Bytes.set_int64_le len8 0 (Int64.of_int (String.length blob));
  let rest = mlen + 8 + blen in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (String.sub full 0 mlen);
      Out_channel.output_bytes oc len8;
      Out_channel.output_string oc blob;
      Out_channel.output_string oc (String.sub full rest (String.length full - rest)))
