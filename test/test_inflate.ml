open Gator

let resources = Layouts.Resource.create ()

let layout =
  Layouts.Layout.parse_exn ~name:"l"
    {|<RelativeLayout>
        <ViewFlipper android:id="@+id/flip" />
        <LinearLayout android:id="@+id/grp"><Button android:id="@+id/ok" /></LinearLayout>
      </RelativeLayout>|}

let () = Layouts.Layout.register resources layout

let site = { Node.s_in = { Node.mid_cls = "C"; mid_name = "m"; mid_arity = 0 }; s_stmt = 3 }

let test_mints_all_nodes () =
  let g = Graph.create () in
  let views, facts = Inflate.instantiate g ~resources ~site layout in
  Alcotest.check Alcotest.bool "facts in view order" true
    (List.map (fun (m : Inflate.minted) -> m.m_view) facts = views);
  Alcotest.check Alcotest.int "one abstraction per layout node" 4 (List.length views);
  Alcotest.check Alcotest.int "recorded" 4 (List.length (Graph.inflated_views g))

let test_root_first () =
  let g = Graph.create () in
  let views, _ = Inflate.instantiate g ~resources ~site layout in
  match Inflate.root views with
  | Node.V_infl i ->
      Alcotest.check Alcotest.string "root class" "RelativeLayout" i.v_cls;
      Alcotest.check (Alcotest.list Alcotest.int) "root path" [] i.v_path
  | Node.V_alloc _ -> Alcotest.fail "root must be inflated"

let test_ids_assigned () =
  let g = Graph.create () in
  let _, facts = Inflate.instantiate g ~resources ~site layout in
  let id_of k = (List.nth facts k).Inflate.m_id in
  let expected = Layouts.Resource.view_id resources "flip" in
  Alcotest.check Alcotest.(option int) "flip id" (Some expected) (id_of 1);
  Alcotest.check Alcotest.(option int) "root has no id" None (id_of 0)

let test_edges_mirror_layout () =
  let g = Graph.create () in
  let views, facts = Inflate.instantiate g ~resources ~site layout in
  let children v =
    (List.find (fun (m : Inflate.minted) -> m.m_view = v) facts).Inflate.m_children
  in
  let rec subtree v = v :: List.concat_map subtree (children v) in
  let root = Inflate.root views in
  Alcotest.check Alcotest.int "root children" 2 (List.length (children root));
  Alcotest.check Alcotest.int "all descendants" 4 (List.length (subtree root))

let test_memoized () =
  let g = Graph.create () in
  let a, _ = Inflate.instantiate g ~resources ~site layout in
  let b, facts = Inflate.instantiate g ~resources ~site layout in
  Alcotest.check Alcotest.bool "same list" true (a == b || a = b);
  Alcotest.check Alcotest.int "facts only on the first call" 0 (List.length facts);
  Alcotest.check Alcotest.int "no duplicates" 4 (List.length (Graph.inflated_views g))

let test_distinct_sites_distinct_views () =
  let g = Graph.create () in
  let other_site = { site with Node.s_stmt = 9 } in
  let a, _ = Inflate.instantiate g ~resources ~site layout in
  let b, _ = Inflate.instantiate g ~resources ~site:other_site layout in
  Alcotest.check Alcotest.bool "fresh abstractions per site" true (List.for_all2 ( <> ) a b);
  Alcotest.check Alcotest.int "both recorded" 8 (List.length (Graph.inflated_views g))

let test_root_of_empty () =
  Alcotest.check_raises "empty inflation" (Invalid_argument "Inflate.root: empty inflation")
    (fun () -> ignore (Inflate.root []))

let suite =
  [
    Alcotest.test_case "mints one view per node" `Quick test_mints_all_nodes;
    Alcotest.test_case "root is first" `Quick test_root_first;
    Alcotest.test_case "ids assigned from resources" `Quick test_ids_assigned;
    Alcotest.test_case "parent-child mirrors layout" `Quick test_edges_mirror_layout;
    Alcotest.test_case "memoized per (site, layout)" `Quick test_memoized;
    Alcotest.test_case "distinct sites mint fresh views" `Quick test_distinct_sites_distinct_views;
    Alcotest.test_case "root of empty rejected" `Quick test_root_of_empty;
  ]
