"""Hierarchical role-based access-control storage gateway.

Data owners seal objects with per-object AES-128-GCM data keys, the keys
are wrapped under per-role RSA public keys, ciphertext is routed to a
public or private store by classification, and every access runs through
a role-hierarchy policy engine with auditing, separation of duties,
delegation, and break-glass override.
"""
