(* Strict argument parsing: every flag is required once, every value is
   checked, and anything else is an error (exit 2), so a typo can never
   silently fall back to a default and measure the wrong thing. *)

type workload = Pipe | Fleet | Replay

type t = { workload : workload; seed : int; seconds : int; trace : bool }

let workloads = [ ("pipe", Pipe); ("fleet", Fleet); ("replay", Replay) ]

let usage =
  "usage: main.exe --workload pipe|fleet|replay --seed N --seconds S --trace 0|1"

let int_arg flag v ~lo ~hi =
  match int_of_string_opt v with
  | Some n when n >= lo && n <= hi && String.for_all (fun c -> c >= '0' && c <= '9') v -> Ok n
  | _ -> Error (Printf.sprintf "%s: expected an integer in [%d, %d], got %S" flag lo hi v)

let parse args =
  let ( let* ) = Result.bind in
  let rec pairs acc = function
    | [] -> Ok (List.rev acc)
    | [ flag ] -> Error (flag ^ ": missing value")
    | flag :: v :: rest ->
      if List.mem_assoc flag acc then Error (flag ^ ": given twice")
      else pairs ((flag, v) :: acc) rest
  in
  let* kv = pairs [] args in
  let* () =
    match
      List.find_opt
        (fun (f, _) -> not (List.mem f [ "--workload"; "--seed"; "--seconds"; "--trace" ]))
        kv
    with
    | Some (f, _) -> Error ("unknown argument " ^ f)
    | None -> Ok ()
  in
  let get flag =
    match List.assoc_opt flag kv with Some v -> Ok v | None -> Error (flag ^ ": required")
  in
  let* w = get "--workload" in
  let* workload =
    match List.assoc_opt w workloads with
    | Some x -> Ok x
    | None ->
      Error
        (Printf.sprintf "--workload: unknown workload %S (known: %s)" w
           (String.concat ", " (List.map fst workloads)))
  in
  let* seed = Result.bind (get "--seed") (int_arg "--seed" ~lo:0 ~hi:max_int) in
  let* seconds = Result.bind (get "--seconds") (int_arg "--seconds" ~lo:1 ~hi:600) in
  let* trace = Result.bind (get "--trace") (int_arg "--trace" ~lo:0 ~hi:1) in
  Ok { workload; seed; seconds; trace = trace = 1 }
