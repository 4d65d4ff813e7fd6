type minted = { m_view : Node.view_abs; m_children : Node.view_abs list; m_id : int option }

let instantiate graph ~resources ~site (def : Layouts.Layout.def) =
  match Graph.find_inflation graph ~site ~layout:def.name with
  | Some views -> (views, [])
  | None ->
      let abs_of_path =
        let tbl = Hashtbl.create 16 in
        fun path (node : Layouts.Layout.node) ->
          match Hashtbl.find_opt tbl path with
          | Some v -> v
          | None ->
              let v =
                Node.V_infl
                  {
                    Node.v_site = site;
                    v_layout = def.name;
                    v_path = path;
                    v_cls = node.view_class;
                    v_vid = node.id;
                  }
              in
              Hashtbl.add tbl path v;
              v
      in
      let nodes = Layouts.Layout.nodes def in
      let children = Hashtbl.create 16 in
      List.iter
        (fun (parent_path, child_path) ->
          match
            ( Layouts.Layout.find def parent_path,
              Layouts.Layout.find def child_path )
          with
          | Some parent_node, Some child_node ->
              let parent = abs_of_path parent_path parent_node in
              let child = abs_of_path child_path child_node in
              Hashtbl.replace children parent
                (child :: Option.value (Hashtbl.find_opt children parent) ~default:[])
          | _ -> assert false)
        (Layouts.Layout.edges def);
      let facts =
        List.map
          (fun (path, (node : Layouts.Layout.node)) ->
            let view = abs_of_path path node in
            (match node.onclick with
            | Some handler -> ignore (Graph.add_onclick graph view handler)
            | None -> ());
            (match node.fragment_class with
            | Some cls -> ignore (Graph.add_declared_fragment graph view cls)
            | None -> ());
            {
              m_view = view;
              m_children =
                List.sort_uniq Node.compare_view
                  (Option.value (Hashtbl.find_opt children view) ~default:[]);
              m_id = Option.map (Layouts.Resource.view_id resources) node.id;
            })
          nodes
      in
      let views = List.map (fun m -> m.m_view) facts in
      Graph.record_inflation graph ~site ~layout:def.name views;
      (views, facts)

let root = function
  | [] -> invalid_arg "Inflate.root: empty inflation"
  | r :: _ -> r
