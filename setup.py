from setuptools import setup

# numpy is the single runtime dependency (the vectorized DSE engines
# and the cycle simulator's flat event wheel run on it).
setup(install_requires=["numpy"])
