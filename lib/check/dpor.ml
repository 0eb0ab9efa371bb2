open Prism_sim
open Prism_fleet

module Iset = Set.Make (Int)

(* One decision point of the choice tree. [alts] is the tie set the
   engine presented (scheduling order, so index 0 is the FIFO pick);
   event seq numbers are the stable identity of an alternative — the
   simulation is deterministic, so re-running the same choice prefix
   reproduces the same tie set with the same seqs.

   Exploration is tree-shaped rather than a DFS stack: every node ever
   reached stays live until all its branch candidates have started, and
   each run targets one (node, alternative) pair, replaying the node's
   ancestor chain (followed through [parent]) to get there. This lets
   the scheduler pick *which* frontier to extend next (see [order] in
   {!explore}) instead of being forced into deepest-first backtracking.
   Nodes share their ancestors rather than each holding a copy of its
   path, so memory stays linear in the number of nodes however deep the
   tree grows. *)
type node = {
  mutable id : int;  (* commit order — assigned when the creating run
                        commits (creation order in the serial walk); -1
                        while the run is still speculative *)
  depth : int;  (* decision index of this node within its runs *)
  parent : (node * int) option;  (* previous decision and the pick taken
                                    there; [None] at the root *)
  alts : Engine.alt array;
  sleep : Iset.t;  (* seqs asleep on entry to this node *)
  branch : Iset.t;  (* persistent set: seqs eligible for branching here *)
  mutable started : Iset.t;  (* seqs whose subtrees have begun exploring *)
}

type 'a class_result = {
  index : int;
  run : int;
  depth : int;
  choices : int array;
  result : 'a;
}

type 'a report = {
  classes : 'a class_result list;
  explored : int;
  runs : int;
  pruned : int;
  complete : bool;
}

exception Diverged

(* Dependency-closure persistent set: the connected component of the
   chosen alternative under [dependent], within the tie set. Members of
   other components commute with everything we will branch on here, and
   their own conflicts are branched at the later decision points where
   they meet — so branching only inside the component covers every
   inequivalent ordering this node can influence. With [full] the whole
   tie set is eligible (no reduction). *)
let closure ~full ~dependent (alts : Engine.alt array) taken_seq =
  if full then
    Array.fold_left (fun s (a : Engine.alt) -> Iset.add a.seq s) Iset.empty alts
  else begin
    (* Dependency edges require at least one endpoint to carry an
       operation label. [dependent] treats label 0 (simulator machinery
       owned by no KV operation) as conflicting with everything, so
       admitting 0–0 edges would connect every tie set completely and the
       tree would drown in reorderings of background events no history
       can distinguish. With the restriction, machinery-only tie sets
       stay in scheduling order, and branching happens exactly where an
       operation's event races something dependent on it. *)
    let edge (a : Engine.alt) (b : Engine.alt) =
      (a.label <> 0 || b.label <> 0) && dependent a.label b.label
    in
    let members = ref (Iset.singleton taken_seq) in
    let changed = ref true in
    while !changed do
      changed := false;
      Array.iter
        (fun (a : Engine.alt) ->
          if not (Iset.mem a.seq !members) then
            if
              Array.exists
                (fun (b : Engine.alt) -> Iset.mem b.seq !members && edge a b)
                alts
            then begin
              members := Iset.add a.seq !members;
              changed := true
            end)
        alts
    done;
    !members
  end

(* First alternative at [n] eligible to start a new subtree under the
   given [started] set: in the persistent set, not already started, not
   asleep. -1 when exhausted. Parameterising [started] lets the
   speculative scheduler evaluate candidates against a predicted future
   state without touching the node. *)
let candidate_with started n =
  let c = ref (-1) in
  Array.iteri
    (fun i (a : Engine.alt) ->
      if
        !c < 0
        && Iset.mem a.seq n.branch
        && (not (Iset.mem a.seq started))
        && not (Iset.mem a.seq n.sleep)
      then c := i)
    n.alts;
  !c

let candidate n = candidate_with n.started n

let explore ?(order = `Frontier) ?(full = false) ?(stop_on = fun _ -> false)
    ?(on_commit = fun ~run:_ _ -> ()) ?pool ~max_classes ~dependent run_fn =
  let nodes : node list ref = ref [] in
  let node_count = ref 0 in
  let classes = ref [] in
  let n_classes = ref 0 in
  let runs = ref 0 in
  let pruned = ref 0 in
  let complete = ref false in
  (* One run against [target], touching no shared exploration state —
     so it can execute speculatively on a worker domain and be committed
     (or discarded) later by the coordinator.

     The label table is run-local. That is equivalent to a persistent
     global one: every seq consulted by sleep-set filtering is a member
     of some ancestor's sleep/started set, and those sets are (by
     construction) subsets of the seqs of tie sets at shallower depths
     along the same path — tie sets this run replays itself, recording
     every member's label before the first consultation. A global table
     could only differ on seqs this run never consults.

     [snapshot] is the [started] set the run assumes at the target node;
     the run works on a local shadow of the node (grown by its own pick)
     instead of publishing the update, and the coordinator validates the
     snapshot is still current at commit time. Fresh nodes carry [id]
     -1 until the commit numbers them. *)
  let spec_run (target : (node * int) option) ~snapshot =
    let label_of : (int, int) Hashtbl.t = Hashtbl.create 256 in
    let fresh : node list ref = ref [] in
    (* Parent of the next fresh decision point, with the index taken
       there — seeds the child's sleep set. *)
    let last : (node * int) option ref = ref None in
    let depth = ref 0 in
    let redundant = ref false in
    let target_forced = ref false in
    let choices_rev = ref [] in
    (* The target's ancestors with their picks, root first: index [d]
       is the decision the replay must reproduce at depth [d]. *)
    let path =
      match target with
      | None -> [||]
      | Some (n, _) ->
          let path = Array.make n.depth (n, 0) in
          let rec fill = function
            | Some ((p : node), pick) ->
                path.(p.depth) <- (p, pick);
                fill p.parent
            | None -> ()
          in
          fill n.parent;
          path
    in
    let choose (alts : Engine.alt array) =
      Array.iter
        (fun (a : Engine.alt) -> Hashtbl.replace label_of a.seq a.label)
        alts;
      let d = !depth in
      incr depth;
      let pick =
        match target with
        | Some (n, _) when d < n.depth ->
            let anc, p = path.(d) in
            if
              Array.length anc.alts <> Array.length alts
              || anc.alts.(p).seq <> alts.(p).seq
            then raise Diverged;
            p
        | Some (n, i) when d = n.depth ->
            if
              Array.length n.alts <> Array.length alts
              || n.alts.(i).seq <> alts.(i).seq
            then raise Diverged;
            target_forced := true;
            (* Run-local shadow: descendants must see [started] grown by
               this run's own pick, but the real node is only updated at
               commit. Only [alts]/[sleep]/[started] of [last] are ever
               read downstream, so the copy (which keeps [n]'s parent
               link) is safe to hang child nodes from. *)
            last := Some ({ n with started = Iset.add n.alts.(i).seq snapshot }, i);
            i
        | _ ->
            if !redundant then 0
            else begin
              (* Sleep set: alternatives whose subtrees an earlier
                 sibling has already begun covering stay asleep until
                 something dependent executes (Godefroid). The invariant
                 is order-independent — a sibling falls asleep as soon as
                 its exploration {e starts}, whatever order subtrees are
                 scheduled in — so at exhaustion every completed run is
                 still a distinct class, and within a budget no class is
                 ever counted twice. *)
              let sleep =
                if full then Iset.empty
                else
                  match !last with
                  | None -> Iset.empty
                  | Some (p, ti) ->
                      let tl = p.alts.(ti).label in
                      let tseq = p.alts.(ti).seq in
                      Iset.union p.sleep (Iset.remove tseq p.started)
                      |> Iset.filter (fun s ->
                             match Hashtbl.find_opt label_of s with
                             | Some l -> not (dependent l tl)
                             | None -> false)
              in
              let taken = ref (-1) in
              Array.iteri
                (fun i (a : Engine.alt) ->
                  if !taken < 0 && not (Iset.mem a.seq sleep) then taken := i)
                alts;
              if !taken < 0 then begin
                (* Every enabled alternative is asleep: any completion of
                   this prefix is Mazurkiewicz-equivalent to an
                   already-covered schedule. Finish the run FIFO but
                   report it pruned. *)
                redundant := true;
                0
              end
              else begin
                let node =
                  {
                    id = -1;
                    depth = d;
                    parent = !last;
                    alts;
                    sleep;
                    branch = closure ~full ~dependent alts alts.(!taken).seq;
                    started = Iset.singleton alts.(!taken).seq;
                  }
                in
                fresh := node :: !fresh;
                last := Some (node, !taken);
                !taken
              end
            end
      in
      choices_rev := pick :: !choices_rev;
      pick
    in
    let result = run_fn ~choose in
    (match target with
    | Some _ when not !target_forced ->
        (* The run ended before reaching the targeted decision point —
           the simulation is not reproducing its prefix. *)
        raise Diverged
    | _ -> ());
    ( result,
      !redundant,
      !depth,
      Array.of_list (List.rev !choices_rev),
      List.rev !fresh (* creation order *) )
  in
  let stopped = ref false in
  (* Publish a finished run: update the target's persistent state,
     number and adopt the fresh nodes, account the class. Commit order
     IS the serial exploration order, so everything downstream (ids,
     run numbers, class indices, [on_commit] calls) is byte-identical
     to the serial walk whatever executed the runs. *)
  let commit (result, redundant, rdepth, choices, fresh) target =
    (match target with
    | Some ((n : node), i) -> n.started <- Iset.add n.alts.(i).seq n.started
    | None -> ());
    List.iter
      (fun f ->
        f.id <- !node_count;
        incr node_count)
      fresh;
    nodes := List.rev_append fresh !nodes;
    incr runs;
    if redundant then incr pruned
    else begin
      classes :=
        { index = !n_classes; run = !runs; depth = rdepth; choices; result }
        :: !classes;
      incr n_classes;
      if stop_on result then stopped := true
    end;
    on_commit ~run:!runs result;
    if !n_classes >= max_classes then stopped := true
  in
  (* Next frontier to extend. [`Frontier] branches at the shallowest
     pending node (earliest decision with an uncovered dependent
     ordering), creation order breaking ties — small budgets spread
     across the whole schedule instead of permuting its tail.
     [`Deepest] takes the most recently created node, which reproduces
     the old DFS backtracking order. *)
  let select l =
    let better (a : node) (b : node) =
      match order with
      | `Frontier ->
          if a.depth <> b.depth then a.depth < b.depth else a.id < b.id
      | `Deepest -> a.id > b.id
    in
    List.fold_left (fun acc n -> if better n acc then n else acc)
      (List.hd l) (List.tl l)
  in
  let next_target () =
    nodes := List.filter (fun n -> candidate n >= 0) !nodes;
    match !nodes with
    | [] -> None
    | l ->
        let n = select l in
        Some (n, candidate n)
  in
  (* The root run builds the initial tree and must run alone. *)
  commit (spec_run None ~snapshot:Iset.empty) None;
  (match pool with
  | Some pool when Fleet.jobs pool > 1 ->
      (* Speculative frontier walk. The serial algorithm is a chain —
         each run's fresh nodes feed the next selection — so parallelism
         comes from *predicting* the next few selections and running
         them speculatively, while the coordinator commits strictly in
         the serial selection order. Before consuming each speculative
         result it recomputes the true next target from committed state;
         a prediction holds unless a committed run created a node that
         preempts the selection (or grew the target's [started] under
         it), in which case the walk falls back to one serial step and
         the rest of the batch is discarded. Commits are the only
         mutation of shared state, so discarded speculations leave no
         trace and the report is byte-identical to the serial walk. *)
      let window = 2 * Fleet.jobs pool in
      (* Predict the next [window] (node, alt, started-snapshot) targets
         by replaying the selection rule against a shadow frontier whose
         started sets grow with each predicted pick. Fresh speculative
         nodes are invisible to the shadow (they only exist at commit),
         so predictions beyond the next commit can be preempted. *)
      let predict () =
        let shadow : (int, Iset.t) Hashtbl.t = Hashtbl.create 16 in
        let started_of n =
          match Hashtbl.find_opt shadow n.id with
          | Some s -> s
          | None -> n.started
        in
        let preds = ref [] in
        let n_preds = ref 0 in
        let exhausted = ref false in
        while (not !exhausted) && !n_preds < window do
          match
            List.filter (fun n -> candidate_with (started_of n) n >= 0) !nodes
          with
          | [] -> exhausted := true
          | live ->
              let n = select live in
              let i = candidate_with (started_of n) n in
              let snap = started_of n in
              preds := (n, i, snap) :: !preds;
              incr n_preds;
              Hashtbl.replace shadow n.id (Iset.add n.alts.(i).seq snap)
        done;
        List.rev !preds
      in
      (* In-flight speculations, head = predicted next commit. After a
         mispredict the tail is re-predicted against the corrected
         frontier instead of being discarded: any in-flight future whose
         (node, alternative, snapshot) triple survives re-prediction is
         still a valid run of that target and is kept; only genuinely
         new targets are submitted. Stale futures are dropped — never
         committed, so they never existed as far as the report is
         concerned (an idle worker may still burn cycles on one). *)
      let inflight = ref [] in
      let refill () =
        let old = !inflight in
        inflight :=
          List.map
            (fun (n, i, snap) ->
              match
                List.find_opt
                  (fun (n', i', snap', _) ->
                    n' == n && i' = i && Iset.equal snap snap')
                  old
              with
              | Some entry -> entry
              | None ->
                  ( n,
                    i,
                    snap,
                    Fleet.submit pool (fun () ->
                        spec_run (Some (n, i)) ~snapshot:snap) ))
            (predict ())
      in
      while not !stopped do
        match next_target () with
        | None ->
            complete := true;
            stopped := true
        | Some (n', i') -> (
            (if !inflight = [] then refill ());
            match !inflight with
            | (n, i, snap, fu) :: rest
              when n' == n && i' = i && Iset.equal snap n.started ->
                inflight := rest;
                commit (Fleet.await pool fu) (Some (n, i))
            | _ ->
                (* Mispredicted (or prediction exhausted): one inline
                   serial step against the true frontier, then rebuild
                   the window, reusing whatever still matches. *)
                commit
                  (spec_run (Some (n', i')) ~snapshot:n'.started)
                  (Some (n', i'));
                refill ())
      done
  | _ ->
      (* Serial walk: same spec_run/commit pair, back to back. *)
      while not !stopped do
        match next_target () with
        | None ->
            complete := true;
            stopped := true
        | Some (n, i) ->
            commit (spec_run (Some (n, i)) ~snapshot:n.started) (Some (n, i))
      done);
  {
    classes = List.rev !classes;
    explored = !n_classes;
    runs = !runs;
    pruned = !pruned;
    complete = !complete;
  }
