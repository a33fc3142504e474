open Dmp_cfg

module Int_set = Set.Make (Int)

type reach = {
  mutable prob : float;
  mutable longest : int;
  mutable weighted_sum : float;
  mutable best_path_prob : float;
  mutable best_path_insts : int;
  on_paths : Bytes.t;
  mutable defs : int;
  mutable max_cbr : int;
}

type result = {
  reaches : (int, reach) Hashtbl.t;
  ret : reach option;
  truncated : bool;
  capped : bool;
}

let fresh_reach nb =
  {
    prob = 0.;
    longest = 0;
    weighted_sum = 0.;
    best_path_prob = -1.;
    best_path_insts = 0;
    on_paths = Bytes.make ((nb + 7) / 8) '\000';
    defs = 0;
    max_cbr = 0;
  }

let set_bit bits i =
  let byte = i lsr 3 in
  Bytes.unsafe_set bits byte
    (Char.unsafe_chr
       (Char.code (Bytes.unsafe_get bits byte) lor (1 lsl (i land 7))))

let blocks r =
  let acc = ref Int_set.empty in
  for i = (Bytes.length r.on_paths * 8) - 1 downto 0 do
    if Char.code (Bytes.get r.on_paths (i lsr 3)) land (1 lsl (i land 7)) <> 0
    then acc := Int_set.add i !acc
  done;
  !acc

let explore ctx ~func ~start ~stop_blocks ~structural =
  let fn = Context.fn ctx func in
  let cfg = fn.Context.cfg in
  let params = ctx.Context.params in
  let nb = Cfg.num_nodes cfg in
  let reaches = Hashtbl.create 32 in
  let ret = fresh_reach nb in
  let ret_reached = ref false in
  let truncated = ref false in
  let capped = ref false in
  let paths = ref 0 in
  let reach_of block =
    match Hashtbl.find_opt reaches block with
    | Some r -> r
    | None ->
        let r = fresh_reach nb in
        Hashtbl.replace reaches block r;
        r
  in
  (* The current path prefix, as a stack of its blocks in order (a block
     recurs when the path goes round a loop) and how many times each
     block occurs on it. Reach sets are filled from the stack in place,
     so a walk step allocates no set. *)
  let path = ref (Array.make 32 0) and depth = ref 0 in
  let on_path = Array.make nb 0 in
  let push x =
    if !depth = Array.length !path then begin
      let bigger = Array.make (2 * !depth) 0 in
      Array.blit !path 0 bigger 0 !depth;
      path := bigger
    end;
    !path.(!depth) <- x;
    incr depth;
    on_path.(x) <- on_path.(x) + 1
  in
  let pop () =
    decr depth;
    let x = !path.(!depth) in
    on_path.(x) <- on_path.(x) - 1
  in
  let record r ~prob ~insts ~cbrs ~defs =
    r.prob <- r.prob +. prob;
    if insts > r.longest then r.longest <- insts;
    r.weighted_sum <- r.weighted_sum +. (prob *. float_of_int insts);
    if prob > r.best_path_prob then begin
      r.best_path_prob <- prob;
      r.best_path_insts <- insts
    end;
    for i = 0 to !depth - 1 do
      set_bit r.on_paths !path.(i)
    done;
    r.defs <- r.defs lor defs;
    if cbrs > r.max_cbr then r.max_cbr <- cbrs
  in
  (* Walk all paths from [start]. At block [x] the accumulators and the
     path stack describe the path prefix strictly before [x]; a path
     records [x] only on its first visit. *)
  let rec walk x ~prob ~insts ~cbrs ~defs =
    if !paths >= params.Params.max_paths then capped := true
    else begin
      if on_path.(x) = 0 then record (reach_of x) ~prob ~insts ~cbrs ~defs;
      if Int_set.mem x stop_blocks then incr paths
      else begin
        let insts' = insts + fn.Context.block_weight.(x) in
        let cbrs' = cbrs + fn.Context.block_cbr.(x) in
        let defs' = defs lor fn.Context.block_def_mask.(x) in
        match (Cfg.block cfg x).Dmp_ir.Block.term with
        | Dmp_ir.Term.Ret ->
            if insts' > params.Params.max_instr then truncated := true
            else begin
              ret_reached := true;
              push x;
              record ret ~prob ~insts:insts' ~cbrs ~defs:defs';
              pop ()
            end;
            incr paths
        | Dmp_ir.Term.Halt -> incr paths
        | Dmp_ir.Term.Jump _ | Dmp_ir.Term.Branch _ ->
            if insts' > params.Params.max_instr
               || cbrs' > params.Params.max_cbr
            then begin
              truncated := true;
              incr paths
            end
            else begin
              push x;
              let followed =
                follow x (Cfg.successors cfg x) ~prob ~insts:insts'
                  ~cbrs:cbrs' ~defs:defs' false
              in
              pop ();
              if not followed then incr paths
            end
      end
    end
  (* Walk on from [x] along each successor edge the mode follows;
     returns whether any was followed. *)
  and follow x succs ~prob ~insts ~cbrs ~defs followed =
    match succs with
    | [] -> followed
    | (s, dir) :: rest ->
        let p =
          if structural then 1.
          else Context.edge_prob ctx ~func ~block:x ~dir
        in
        if structural || p >= params.Params.min_exec_prob then begin
          let prob' = if structural then prob else prob *. p in
          walk s ~prob:prob' ~insts ~cbrs ~defs;
          follow x rest ~prob ~insts ~cbrs ~defs true
        end
        else follow x rest ~prob ~insts ~cbrs ~defs followed
  in
  walk start ~prob:1. ~insts:0 ~cbrs:0 ~defs:0;
  {
    reaches;
    ret = (if !ret_reached then Some ret else None);
    truncated = !truncated;
    capped = !capped;
  }

let reach result block = Hashtbl.find_opt result.reaches block

let avg_insts r =
  if r.prob <= 0. then 0. else r.weighted_sum /. r.prob
