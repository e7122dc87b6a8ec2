(* froz_version FILE N: rewrite the format version of a saved .froz
   snapshot to N (see Froz_stamp). *)
let () = Froz_stamp.set_version Sys.argv.(1) (int_of_string Sys.argv.(2))
