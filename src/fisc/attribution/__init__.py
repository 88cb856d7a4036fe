"""The attribution protocol: authorities, ownership proofs, queries and the travel rule."""
