module Vec = Dvbp_vec.Vec
module Rng = Dvbp_prelude.Rng

type item_view = { size : Vec.t; arrival : float; departure : float option }
type decision = Existing of Bin.t | Fresh

type t = {
  name : string;
  describe : string;
  select : item:item_view -> open_bins:Bin_registry.t -> decision;
  on_place : bin:Bin.t -> now:float -> unit;
  on_close : bin:Bin.t -> now:float -> unit;
  strict_any_fit : bool;
  export : unit -> int list;
  import : int list -> selects:int -> bin:(int -> Bin.t option) -> (unit, string) result;
}

let no_place ~bin:_ ~now:_ = ()
let no_close ~bin:_ ~now:_ = ()
let no_export () = []

let no_import name state ~selects:_ ~bin:_ =
  match state with
  | [] -> Ok ()
  | _ :: _ -> Error (Printf.sprintf "policy %s keeps no state, but some was given" name)

let bad_state name = Error (Printf.sprintf "policy %s: malformed saved state" name)

(* the restored open bin with this id, for the importers below *)
let bin_of name bin id =
  match bin id with
  | Some b -> Ok b
  | None -> Error (Printf.sprintf "policy %s: saved state names bin %d, which is not open" name id)

let rec import_bins name bin = function
  | [] -> Ok []
  | id :: rest -> (
      match bin_of name bin id with
      | Error _ as e -> e
      | Ok b -> Result.map (fun bs -> b :: bs) (import_bins name bin rest))

(* harmonic and hybrid classes: a flat [bin; class; bin; class ...] list,
   bins ascending *)
let export_classes bin_class () =
  Hashtbl.fold (fun id cls acc -> (id, cls) :: acc) bin_class []
  |> List.sort compare
  |> List.concat_map (fun (id, cls) -> [ id; cls ])

let import_classes name ~classes bin_class state ~selects:_ ~bin =
  let rec go = function
    | [] -> Ok ()
    | [ _ ] -> bad_state name
    | id :: cls :: rest -> (
        if cls < 0 || cls >= classes then bad_state name
        else
          match bin_of name bin id with
          | Error _ as e -> e
          | Ok _ ->
              Hashtbl.replace bin_class id cls;
              go rest)
  in
  Hashtbl.reset bin_class;
  go state

let of_choice = function Some b -> Existing b | None -> Fresh

let first_fit () =
  let select ~item ~open_bins =
    of_choice (Bin_registry.find_fitting open_bins item.size)
  in
  {
    name = "ff";
    describe = "First Fit: earliest-opened bin that fits";
    select;
    on_place = no_place;
    on_close = no_close;
    strict_any_fit = true;
    export = no_export;
    import = no_import "ff";
  }

let last_fit () =
  let select ~item ~open_bins =
    of_choice (Bin_registry.rfind_fitting open_bins item.size)
  in
  {
    name = "lf";
    describe = "Last Fit: latest-opened bin that fits";
    select;
    on_place = no_place;
    on_close = no_close;
    strict_any_fit = true;
    export = no_export;
    import = no_import "lf";
  }

let best_fit ?(measure = Load_measure.Linf) () =
  let select ~item ~open_bins =
    of_choice (Bin_registry.most_loaded_fitting open_bins ~measure item.size)
  in
  {
    name = "bf";
    describe =
      Printf.sprintf "Best Fit (%s): most-loaded bin that fits" (Load_measure.name measure);
    select;
    on_place = no_place;
    on_close = no_close;
    strict_any_fit = true;
    export = no_export;
    import = no_import "bf";
  }

let worst_fit ?(measure = Load_measure.Linf) () =
  let select ~item ~open_bins =
    of_choice (Bin_registry.least_loaded_fitting open_bins ~measure item.size)
  in
  {
    name = "wf";
    describe =
      Printf.sprintf "Worst Fit (%s): least-loaded bin that fits" (Load_measure.name measure);
    select;
    on_place = no_place;
    on_close = no_close;
    strict_any_fit = true;
    export = no_export;
    import = no_import "wf";
  }

let move_to_front () =
  let select ~item ~open_bins =
    of_choice (Bin_registry.recently_used_fitting open_bins item.size)
  in
  {
    name = "mtf";
    describe = "Move To Front: most-recently-used bin that fits";
    select;
    on_place = no_place;
    on_close = no_close;
    strict_any_fit = true;
    export = no_export;
    import = no_import "mtf";
  }

let random_fit ~rng () =
  let select ~item ~open_bins =
    (* one counting pass, one draw, one selection pass — the draw consumes
       the same random stream as the old [Rng.pick] over an array *)
    match Bin_registry.count_fitting open_bins item.size with
    | 0 -> Fresh
    | n -> (
        match Bin_registry.nth_fitting open_bins item.size (Rng.int rng n) with
        | Some b -> Existing b
        | None -> assert false)
  in
  {
    name = "rf";
    describe = "Random Fit: uniformly random bin that fits";
    select;
    on_place = no_place;
    on_close = no_close;
    strict_any_fit = true;
    (* the rng cannot be serialised: save how far it has drawn, and
       restore by fast-forwarding the freshly seeded stream. Each select
       draws once, plus a retry with probability below (open bins)/2^30,
       so a count over twice the selects is refused, not looped over *)
    export = (fun () -> [ Rng.bits_drawn rng ]);
    import =
      (fun state ~selects ~bin:_ ->
        match state with
        | [ n ] when n >= Rng.bits_drawn rng && n <= (2 * selects) + 64 ->
            Rng.skip rng (n - Rng.bits_drawn rng);
            Ok ()
        | _ -> bad_state "rf");
  }

let next_fit () =
  (* the current bin is held by direct reference — no id rescan of the
     open bins; [on_close] drops it the moment the engine closes it *)
  let current = ref None in
  let select ~item ~open_bins:_ =
    match !current with
    | Some b when Bin.is_open b && Bin.fits b item.size -> Existing b
    | Some _ | None -> Fresh
  in
  let on_place ~bin ~now:_ = current := Some bin in
  let on_close ~bin ~now:_ =
    match !current with
    | Some (b : Bin.t) when b.Bin.id = bin.Bin.id -> current := None
    | Some _ | None -> ()
  in
  let export () = match !current with Some (b : Bin.t) -> [ b.Bin.id ] | None -> [] in
  let import state ~selects:_ ~bin =
    match state with
    | [] ->
        current := None;
        Ok ()
    | [ id ] ->
        Result.map (fun b -> current := Some b) (bin_of "nf" bin id)
    | _ -> bad_state "nf"
  in
  {
    name = "nf";
    describe = "Next Fit: single current bin, released when an item misses";
    select;
    on_place;
    on_close;
    strict_any_fit = false;
    export;
    import;
  }

let next_k_fit ~k () =
  if k < 1 then invalid_arg "Policy.next_k_fit: k < 1";
  (* candidate bins by direct reference, oldest first; length <= k *)
  let candidates = ref [] in
  let select ~item ~open_bins:_ =
    of_choice (List.find_opt (fun b -> Bin.fits b item.size) !candidates)
  in
  let on_place ~bin ~now:_ =
    if not (List.exists (fun (b : Bin.t) -> b.Bin.id = bin.Bin.id) !candidates)
    then begin
      (* fresh bin becomes a candidate; drop the oldest beyond k *)
      let extended = !candidates @ [ bin ] in
      let overflow = List.length extended - k in
      candidates :=
        if overflow > 0 then
          List.filteri (fun i _ -> i >= overflow) extended
        else extended
    end
  in
  let on_close ~bin ~now:_ =
    candidates := List.filter (fun (b : Bin.t) -> b.Bin.id <> bin.Bin.id) !candidates
  in
  let name = Printf.sprintf "nf%d" k in
  let export () = List.map (fun (b : Bin.t) -> b.Bin.id) !candidates in
  let import state ~selects:_ ~bin =
    if List.length state > k then bad_state name
    else Result.map (fun bs -> candidates := bs) (import_bins name bin state)
  in
  {
    name;
    describe =
      Printf.sprintf "Next-%d Fit: first fit among the %d most recent bins" k k;
    select;
    on_place;
    on_close;
    strict_any_fit = false;
    export;
    import;
  }

let harmonic_fit ?(num_classes = 6) ~capacity () =
  if num_classes < 1 then invalid_arg "Policy.harmonic_fit: num_classes < 1";
  let bin_class : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let pending_class = ref 0 in
  let select ~item ~open_bins =
    (* harmonic class j holds relative L∞ sizes in (1/(j+2), 1/(j+1)];
       class 0 is (1/2, 1], the last class catches the rest *)
    let cls =
      let rel = Vec.linf ~cap:capacity item.size in
      if rel <= 0.0 then num_classes - 1
      else Int.min (num_classes - 1) (Int.max 0 (int_of_float (1.0 /. rel) - 1))
    in
    pending_class := cls;
    of_choice
      (Bin_registry.find open_bins (fun (b : Bin.t) ->
           Hashtbl.find_opt bin_class b.Bin.id = Some cls && Bin.fits b item.size))
  in
  let on_place ~bin ~now:_ =
    if not (Hashtbl.mem bin_class bin.Bin.id) then
      Hashtbl.replace bin_class bin.Bin.id !pending_class
  in
  let on_close ~bin ~now:_ = Hashtbl.remove bin_class bin.Bin.id in
  {
    name = "hf";
    describe =
      Printf.sprintf "Harmonic Fit: first fit within %d size classes" num_classes;
    select;
    on_place;
    on_close;
    strict_any_fit = false;
    export = export_classes bin_class;
    import = import_classes "hf" ~classes:num_classes bin_class;
  }

(* Latest departure among a bin's active items; the bin stays busy at least
   until then, so aligning the new item with it avoids a lone long tail. *)
let latest_departure (b : Bin.t) =
  List.fold_left
    (fun acc (r : Item.t) -> Float.max acc r.Item.departure)
    neg_infinity b.Bin.active_items

let duration_aligned_fit ?(slack = 0.0) () =
  let select ~item ~open_bins =
    match item.departure with
    | None ->
        of_choice
          (Bin_registry.most_loaded_fitting open_bins ~measure:Load_measure.Linf
             item.size)
    | Some dep ->
        (* lexicographic min of (gap, -load): smaller gap first, then the
           fuller bin; ties keep the earliest-opened candidate *)
        let best = ref None and best_gap = ref 0.0 and best_neg = ref 0.0 in
        Bin_registry.fold_fitting open_bins item.size
          (fun () b ->
            let gap = Float.abs (latest_departure b -. dep) in
            let gap = if gap <= slack then 0.0 else gap in
            let neg = -.Bin.load_measure Load_measure.Linf b in
            match !best with
            | Some _ when not (gap < !best_gap || (gap = !best_gap && neg < !best_neg))
              -> ()
            | _ ->
                best := Some b;
                best_gap := gap;
                best_neg := neg)
          ();
        of_choice !best
  in
  {
    name = "daf";
    describe = "Duration-Aligned Fit (clairvoyant): nearest-departure bin that fits";
    select;
    on_place = no_place;
    on_close = no_close;
    strict_any_fit = true;
    export = no_export;
    import = no_import "daf";
  }

let hybrid_first_fit ?(num_classes = 16) () =
  if num_classes < 1 then invalid_arg "Policy.hybrid_first_fit: num_classes < 1";
  (* class of a duration: ⌊log2⌋, clamped to [0, num_classes-1]; items with
     unknown departure share a dedicated extra class *)
  let unknown_class = num_classes in
  let class_of = function
    | None -> unknown_class
    | Some duration ->
        let c = int_of_float (Float.floor (Float.log2 (Float.max 1.0 duration))) in
        Int.min (num_classes - 1) (Int.max 0 c)
  in
  let bin_class : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let pending_class = ref unknown_class in
  let select ~item ~open_bins =
    let duration = Option.map (fun dep -> dep -. item.arrival) item.departure in
    let cls = class_of duration in
    pending_class := cls;
    of_choice
      (Bin_registry.find open_bins (fun (b : Bin.t) ->
           Hashtbl.find_opt bin_class b.Bin.id = Some cls && Bin.fits b item.size))
  in
  let on_place ~bin ~now:_ =
    if not (Hashtbl.mem bin_class bin.Bin.id) then
      Hashtbl.replace bin_class bin.Bin.id !pending_class
  in
  let on_close ~bin ~now:_ = Hashtbl.remove bin_class bin.Bin.id in
  {
    name = "hff";
    describe =
      Printf.sprintf
        "Hybrid First Fit (clairvoyant): First Fit within %d duration classes"
        num_classes;
    select;
    on_place;
    on_close;
    strict_any_fit = false;
    export = export_classes bin_class;
    import = import_classes "hff" ~classes:(num_classes + 1) bin_class;
  }

let standard_names = [ "mtf"; "ff"; "bf"; "nf"; "wf"; "lf"; "rf" ]

let of_name ?rng ?measure name =
  match String.lowercase_ascii name with
  | "ff" | "first-fit" | "firstfit" -> Ok (first_fit ())
  | "lf" | "last-fit" | "lastfit" -> Ok (last_fit ())
  | "bf" | "best-fit" | "bestfit" -> Ok (best_fit ?measure ())
  | "wf" | "worst-fit" | "worstfit" -> Ok (worst_fit ?measure ())
  | "mtf" | "move-to-front" | "movetofront" -> Ok (move_to_front ())
  | "nf" | "next-fit" | "nextfit" -> Ok (next_fit ())
  | "daf" | "duration-aligned" -> Ok (duration_aligned_fit ())
  | "hff" | "hybrid-first-fit" -> Ok (hybrid_first_fit ())
  | s
    when String.length s > 2
         && String.sub s 0 2 = "nf"
         && Option.is_some (int_of_string_opt (String.sub s 2 (String.length s - 2)))
    -> (
      match int_of_string_opt (String.sub s 2 (String.length s - 2)) with
      | Some k when k >= 1 -> Ok (next_k_fit ~k ())
      | Some _ | None -> Error (Printf.sprintf "Policy.of_name: bad Next-K Fit %S" s))
  | "rf" | "random-fit" | "randomfit" -> (
      match rng with
      | Some rng -> Ok (random_fit ~rng ())
      | None -> Error "Policy.of_name: \"rf\" needs an rng")
  | other -> Error (Printf.sprintf "Policy.of_name: unknown policy %S" other)

let of_name_exn ?rng ?measure name =
  match of_name ?rng ?measure name with
  | Ok p -> p
  | Error msg -> invalid_arg msg
