import accpair


def test_every_exported_name_imports():
    missing = [name for name in accpair.__all__ if not hasattr(accpair, name)]
    assert missing == []
    namespace = {}
    exec("from accpair import *", namespace)
    assert set(accpair.__all__) <= set(namespace)
