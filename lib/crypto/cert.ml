type t = {
  node_id : int;
  addr : int;
  public : Keys.public;
  issued_at : float;
  expires : float;
  tag : Keys.signature;
}

(* [verified] maps a tag that has passed the CA signature check to a
   private copy of the certificate it signed. A certificate whose tag is
   found there and whose every signed field equals the stored copy's has
   the same binding digest, so its signature check would succeed again:
   [verify] skips the binding digest and the HMAC. Revocation and the
   validity window depend on [now] and stay outside the memo. *)
type authority = {
  keypair : Keys.keypair;
  registry : Keys.registry;
  revoked : (int, float) Hashtbl.t;
  verified : (Keys.signature, t) Hashtbl.t;
}

let create_authority registry rng =
  {
    keypair = Keys.generate registry rng;
    registry;
    revoked = Hashtbl.create 64;
    verified = Hashtbl.create 16;
  }

let binding ~node_id ~addr ~public ~issued_at ~expires =
  let w = Wire.open_digest () in
  Wire.add_int w node_id;
  Wire.close_part w;
  Wire.add_int w addr;
  Wire.close_part w;
  Wire.add_hex w (Keys.public_bytes public);
  Wire.close_part w;
  Wire.add_time w issued_at;
  Wire.close_part w;
  Wire.add_time w expires;
  Wire.close_part w;
  Wire.finish w

let issue auth ~node_id ~addr ~public ~now ~expires =
  let tag =
    Keys.sign auth.keypair.Keys.secret (binding ~node_id ~addr ~public ~issued_at:now ~expires)
  in
  { node_id; addr; public; issued_at = now; expires; tag }

let same_binding a b =
  Int.equal a.node_id b.node_id
  && Int.equal a.addr b.addr
  && Keys.public_equal a.public b.public
  && Float.equal a.issued_at b.issued_at
  && Float.equal a.expires b.expires

let signature_ok auth cert =
  match Hashtbl.find_opt auth.verified cert.tag with
  | Some seen when same_binding seen cert -> true
  | _ ->
    let ok =
      Keys.verify auth.registry auth.keypair.Keys.public
        (binding ~node_id:cert.node_id ~addr:cert.addr ~public:cert.public
           ~issued_at:cert.issued_at ~expires:cert.expires)
        cert.tag
    in
    (* Copies: the caller's byte buffers may be mutated after this call.
       Only tags the CA signed get in, so the memo holds at most one entry
       per issued certificate. *)
    if ok then begin
      let tag = Keys.signature_of_bytes (Bytes.copy (Keys.signature_bytes cert.tag)) in
      let public = Keys.public_of_bytes (Bytes.copy (Keys.public_bytes cert.public)) in
      Hashtbl.replace auth.verified tag { cert with public; tag }
    end;
    ok

let verify auth ~now cert =
  (match Hashtbl.find_opt auth.revoked cert.node_id with
  | Some at -> now < at
  | None -> true)
  && cert.expires > now
  && cert.issued_at <= now
  && signature_ok auth cert

let revoke auth ~now ~node_id =
  if not (Hashtbl.mem auth.revoked node_id) then Hashtbl.replace auth.revoked node_id now

let revoked_at auth ~node_id = Hashtbl.find_opt auth.revoked node_id
let is_revoked auth ~node_id = Hashtbl.mem auth.revoked node_id
let revoked_count auth = Hashtbl.length auth.revoked
