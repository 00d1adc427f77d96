(* benchcheck CONTRACT FILE: check one JSON file against one named tier-1
   contract (contracts.ml). Prints "CONTRACT: ok (summary)" and exits 0;
   prints the violated field and exits 1 when FILE breaks the contract
   or is not JSON; exits 2 on bad usage. *)

open Pop_benchcheck
open Pop_harness

let usage () =
  Printf.eprintf "usage: benchcheck CONTRACT FILE\nCONTRACT is one of %s\n"
    (String.concat "|" (List.map (fun (c : Contracts.t) -> c.name) Contracts.all));
  exit 2

let () =
  match Sys.argv with
  | [| _; name; file |] -> (
      let c = match Contracts.find name with Some c -> c | None -> usage () in
      let doc = try Ok (Json.of_file file) with Json.Parse_error m | Sys_error m -> Error m in
      match Result.bind doc (Contracts.run c) with
      | Ok summary -> Printf.printf "%s: ok (%s)\n" name summary
      | Error m ->
          Printf.eprintf "%s: FAIL %s: %s\n" name file m;
          exit 1)
  | _ -> usage ()
