(* Knuth–Morris–Pratt: O(|s| + |sub|), replacing the quadratic
   String.sub-per-position scans that used to be copy-pasted around the
   tree (CLI, apidata oracles, gencheck). *)
let contains ~sub s =
  let n = String.length sub and m = String.length s in
  if n = 0 then true
  else if n > m then false
  else begin
    let fail = Array.make n 0 in
    let k = ref 0 in
    for i = 1 to n - 1 do
      while !k > 0 && sub.[i] <> sub.[!k] do
        k := fail.(!k - 1)
      done;
      if sub.[i] = sub.[!k] then incr k;
      fail.(i) <- !k
    done;
    let q = ref 0 in
    try
      for i = 0 to m - 1 do
        while !q > 0 && s.[i] <> sub.[!q] do
          q := fail.(!q - 1)
        done;
        if s.[i] = sub.[!q] then incr q;
        if !q = n then raise Exit
      done;
      false
    with Exit -> true
  end

(* The temporary lives beside the target so the rename stays within one
   file system (and is therefore atomic). *)
let write_file_atomic path write =
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  let oc = open_out_bin tmp in
  match
    let r = write oc in
    flush oc;
    Unix.fsync (Unix.descr_of_out_channel oc);
    close_out oc;
    Sys.rename tmp path;
    r
  with
  | r -> r
  | exception e ->
      close_out_noerr oc;
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e

(* Logs_fmt's default reporter prints through the one shared
   [Format.err_formatter], whose pretty-printing queue is not domain-safe:
   pool workers logging at once corrupt it (an uncaught [Queue.Empty]
   mid-print). Each report is formatted into its own buffer instead, and
   the finished line is written with one locked channel write. *)
let log_lock = Mutex.create ()

let log_reporter ?(app = stdout) ?(dst = stderr) () =
  let report src level ~over k msgf =
    let buf = Buffer.create 256 in
    let ppf = Format.formatter_of_buffer buf in
    let oc = if level = Logs.App then app else dst in
    let write () =
      Mutex.protect log_lock (fun () ->
          Out_channel.output_string oc (Buffer.contents buf);
          Out_channel.flush oc);
      over ()
    in
    (Logs_fmt.reporter ~app:ppf ~dst:ppf ()).Logs.report src level ~over:write k
      msgf
  in
  { Logs.report }
